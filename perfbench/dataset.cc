#include "dataset.h"

#include <algorithm>
#include <cmath>
#include <ctime>

namespace perfbench {

using nblb::Column;
using nblb::Row;
using nblb::Schema;
using nblb::TypeId;
using nblb::Value;

Schema RevisionSchema() {
  return Schema({
      {"rev_id", TypeId::kInt64, 0},
      {"rev_page", TypeId::kInt64, 0},
      {"rev_text_id", TypeId::kInt64, 0},
      {"rev_comment", TypeId::kVarchar, 255},
      {"rev_user", TypeId::kInt64, 0},
      {"rev_user_text", TypeId::kVarchar, 255},
      {"rev_timestamp", TypeId::kChar, 14},
      {"rev_minor_edit", TypeId::kInt64, 0},
      {"rev_deleted", TypeId::kInt64, 0},
      {"rev_len", TypeId::kInt64, 0},
      {"rev_parent_id", TypeId::kInt64, 0},
  });
}

std::vector<size_t> ProjectedColumns() { return {kColPage, kColLen}; }

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix64(state_);
}

Zipf::Zipf(uint64_t n, double alpha) : cdf_(n) {
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
}

Dataset::Dataset(uint64_t seed, uint64_t rows)
    : seed_(seed),
      rows_(rows),
      page_of_(rows),
      parent_of_(rows),
      latest_(std::max<uint64_t>(1, rows / kRevisionsPerPage), 0),
      rank_page_(latest_.size()),
      zipf_(latest_.size(), kAlpha) {
  Rng rng(Mix64(seed ^ 0x5eedULL));
  const uint64_t pages = latest_.size();
  // Popularity rank -> page: a seeded shuffle, so hot pages are scattered.
  for (uint64_t p = 0; p < pages; ++p) rank_page_[p] = static_cast<uint32_t>(p);
  for (uint64_t i = pages; i > 1; --i) {
    std::swap(rank_page_[i - 1], rank_page_[rng.Uniform(i)]);
  }
  // Revisions in edit-time order: every page is created once, then edits
  // land on pages by the same popularity skew as reads. A page's latest
  // revision is therefore scattered through the key space.
  for (uint64_t k = 1; k <= rows; ++k) {
    const uint32_t page =
        k <= pages ? static_cast<uint32_t>(k - 1)
                   : rank_page_[zipf_.Sample(&rng)];
    page_of_[k - 1] = page;
    parent_of_[k - 1] = latest_[page];
    latest_[page] = static_cast<uint32_t>(k);
  }
}

int64_t Dataset::BaseLen(uint64_t key) const {
  return 100 + static_cast<int64_t>(Mix64(seed_ ^ (key * 0x100000001b3ULL)) %
                                    50000);
}

std::string Dataset::Comment(uint64_t key, uint32_t version) const {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz     ";
  uint64_t h = Mix64(seed_ * 31 + key * 0x9e37ULL + version * 0x51ed27ULL);
  const size_t len = 8 + h % 40;
  std::string s(len, ' ');
  for (size_t i = 0; i < len; ++i) {
    if (i % 10 == 0) h = Mix64(h);
    s[i] = kAlphabet[(h >> ((i % 10) * 6)) % (sizeof(kAlphabet) - 1)];
  }
  return s;
}

std::string Dataset::UserText(uint64_t key) const {
  return "User" + std::to_string(Mix64(seed_ + key) % 5000);
}

std::string Dataset::Timestamp(uint64_t key) const {
  // 2008-01-01T00:00:00Z plus ~37 s per revision: edit-time order.
  const time_t t = static_cast<time_t>(1199145600 + key * 37 +
                                       Mix64(seed_ ^ key) % 30);
  struct tm tm {};
  gmtime_r(&t, &tm);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y%m%d%H%M%S", &tm);
  return std::string(buf, 14);
}

Row Dataset::MakeRow(uint64_t key, uint32_t version) const {
  const uint64_t h = Mix64(seed_ ^ (key << 1));
  const int64_t user = static_cast<int64_t>(Mix64(seed_ + key) % 5000);
  Row row;
  row.reserve(kNumColumns);
  row.push_back(Value::Int64(static_cast<int64_t>(key)));
  row.push_back(Value::Int64(page_of_[key - 1]));
  row.push_back(Value::Int64(static_cast<int64_t>(key * 7 + 3)));
  row.push_back(Value::Varchar(Comment(key, version)));
  row.push_back(Value::Int64(user));
  row.push_back(Value::Varchar(UserText(key)));
  row.push_back(Value::Char(Timestamp(key)));
  row.push_back(Value::Int64(static_cast<int64_t>(h % 2)));
  row.push_back(Value::Int64(0));
  row.push_back(Value::Int64(BaseLen(key) + version));
  row.push_back(Value::Int64(parent_of_[key - 1]));
  return row;
}

Row Dataset::MakeProjection(uint64_t key, uint32_t version) const {
  return Row{Value::Int64(page_of_[key - 1]),
             Value::Int64(BaseLen(key) + version)};
}

namespace {

bool SameValue(const Value& got, const Value& want) {
  if (got.type() != want.type()) return false;
  if (nblb::IsStringFamily(want.type())) return got.AsString() == want.AsString();
  return got.AsInt() == want.AsInt();
}

bool RowsEqual(const Row& got, const Row& want, const char* what,
               uint64_t key, uint32_t version, std::string* why) {
  if (got.size() != want.size()) {
    *why = std::string(what) + " for key " + std::to_string(key) + " has " +
           std::to_string(got.size()) + " columns, want " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!SameValue(got[i], want[i])) {
      *why = std::string(what) + " for key " + std::to_string(key) +
             " version " + std::to_string(version) + ": column " +
             std::to_string(i) + " is '" + got[i].ToString() + "', want '" +
             want[i].ToString() + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

bool Dataset::RowMatches(const Row& got, uint64_t key, uint32_t version,
                         std::string* why) const {
  return RowsEqual(got, MakeRow(key, version), "row", key, version, why);
}

bool Dataset::ProjectionMatches(const Row& got, uint64_t key, uint32_t version,
                                std::string* why) const {
  return RowsEqual(got, MakeProjection(key, version), "projection", key,
                   version, why);
}

int64_t Dataset::VersionOf(const Row& got, size_t len_column,
                           uint64_t key) const {
  if (got.size() <= len_column ||
      !nblb::IsIntegerFamily(got[len_column].type())) {
    return -1;
  }
  const int64_t v = got[len_column].AsInt() - BaseLen(key);
  return v < 0 ? -1 : v;
}

uint64_t Dataset::SampleReadKey(Rng* rng) const {
  if (rng->Unit() < kLatestShare) {
    return latest_[rank_page_[zipf_.Sample(rng)]];
  }
  return 1 + rng->Uniform(rows_);
}

double Dataset::MeanContentBytes() const {
  const uint64_t n = std::min<uint64_t>(rows_, 1000);
  double total = 0;
  for (uint64_t k = 1; k <= n; ++k) {
    const Row row = MakeRow(k, 0);
    for (const Value& v : row) {
      total += nblb::IsStringFamily(v.type()) ? v.AsString().size() : 8;
    }
  }
  return total / n;
}

}  // namespace perfbench
