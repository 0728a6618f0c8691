// Checker: compares every reply the serving stack sends against answers the
// benchmark computes itself from its Dataset.
//
// Each check returns false and explains why on a mismatch; the generator
// fails the run (non-zero exit) on the first one. checker_test.cc feeds it
// deliberately wrong replies to prove each kind of fault is reported.

#pragma once

#include <cstdint>
#include <string>

#include "dataset.h"
#include "shard/request.h"

namespace perfbench {

/// What the generator expects one request's reply to hold.
struct Expectation {
  nblb::RequestKind kind = nblb::RequestKind::kGet;
  uint64_t key = 0;
  /// The version the key must read at (reads), or the version the update
  /// carries (kUpdate).
  uint32_t version = 0;
};

class Checker {
 public:
  explicit Checker(const Dataset* dataset) : dataset_(dataset) {}

  /// A served reply: kGet must return the full row at `version`,
  /// kGetProjected its (rev_page, rev_len) projection, and writes must
  /// succeed without a row.
  bool CheckReply(const Expectation& want, const nblb::RequestResult& got,
                  std::string* why) const;

  /// A full-row read after a crash: the key must exist and hold a version in
  /// [acked, sent] — an acked update may not be lost, and no version the
  /// generator never sent may appear. On success *version is the one read.
  bool CheckRecovered(uint64_t key, uint32_t acked, uint32_t sent,
                      const nblb::RequestResult& got, uint32_t* version,
                      std::string* why) const;

  /// The program's own count of served requests must equal the generator's
  /// count of requests sent.
  static bool CheckServedCount(const std::string& what, uint64_t served,
                               uint64_t sent, std::string* why);

 private:
  const Dataset* dataset_;
};

}  // namespace perfbench
