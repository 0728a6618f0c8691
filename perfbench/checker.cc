#include "checker.h"

namespace perfbench {

using nblb::RequestKind;
using nblb::RequestResult;

bool Checker::CheckReply(const Expectation& want, const RequestResult& got,
                         std::string* why) const {
  if (!got.status.ok()) {
    *why = "key " + std::to_string(want.key) + " failed: " +
           got.status.ToString();
    return false;
  }
  switch (want.kind) {
    case RequestKind::kGet:
      return dataset_->RowMatches(got.row, want.key, want.version, why);
    case RequestKind::kGetProjected:
      return dataset_->ProjectionMatches(got.row, want.key, want.version,
                                         why);
    case RequestKind::kInsert:
    case RequestKind::kUpdate:
    case RequestKind::kDelete:
      if (!got.row.empty()) {
        *why = "write to key " + std::to_string(want.key) +
               " returned a row";
        return false;
      }
      return true;
  }
  *why = "unknown request kind";
  return false;
}

bool Checker::CheckRecovered(uint64_t key, uint32_t acked, uint32_t sent,
                             const RequestResult& got, uint32_t* version,
                             std::string* why) const {
  if (!got.status.ok()) {
    *why = "key " + std::to_string(key) + " unreadable after recovery: " +
           got.status.ToString();
    return false;
  }
  const int64_t v = dataset_->VersionOf(got.row, kColLen, key);
  if (v < 0) {
    *why = "key " + std::to_string(key) + " recovered with no valid rev_len";
    return false;
  }
  if (v < static_cast<int64_t>(acked)) {
    *why = "key " + std::to_string(key) + " lost an acked update: read v" +
           std::to_string(v) + ", acked v" + std::to_string(acked);
    return false;
  }
  if (v > static_cast<int64_t>(sent)) {
    *why = "key " + std::to_string(key) + " recovered v" + std::to_string(v) +
           ", which was never sent (last sent v" + std::to_string(sent) + ")";
    return false;
  }
  *version = static_cast<uint32_t>(v);
  return dataset_->RowMatches(got.row, key, *version, why);
}

bool Checker::CheckServedCount(const std::string& what, uint64_t served,
                               uint64_t sent, std::string* why) {
  if (served == sent) return true;
  *why = what + ": the server counted " + std::to_string(served) +
         ", the generator sent " + std::to_string(sent);
  return false;
}

}  // namespace perfbench
