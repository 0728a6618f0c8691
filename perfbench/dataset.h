// Dataset: the benchmark's own Wikipedia-style revision rows, read keys and
// expected answers, all derived from one seed.
//
// Nothing here calls into src/workload: a change to the program cannot move
// the inputs or the answers the checker compares against.
//
// Keys are rev_ids 1..rows. A row's content is a pure function of
// (seed, key, version): version 0 is the loaded row, and every update bumps
// the version, which changes rev_len (= base length + version) and
// rev_comment. The checker regenerates the expected row from (key, version)
// and can read the version back out of a reply's rev_len.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"

namespace perfbench {

// Column positions in the revision schema.
constexpr size_t kColId = 0;
constexpr size_t kColPage = 1;
constexpr size_t kColTextId = 2;
constexpr size_t kColComment = 3;
constexpr size_t kColUser = 4;
constexpr size_t kColUserText = 5;
constexpr size_t kColTimestamp = 6;
constexpr size_t kColMinorEdit = 7;
constexpr size_t kColDeleted = 8;
constexpr size_t kColLen = 9;
constexpr size_t kColParent = 10;
constexpr size_t kNumColumns = 11;

/// MediaWiki 1.16-era revision layout: int64 flags, VARCHAR(255) strings and
/// the 14-byte CHAR timestamp.
nblb::Schema RevisionSchema();

/// The projection every kGetProjected asks for (rev_page, rev_len); the
/// table caches exactly these columns in leaf free space.
std::vector<size_t> ProjectedColumns();

/// splitmix64 finalizer.
uint64_t Mix64(uint64_t x);

/// Small seeded generator (splitmix64 stream).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(alpha) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(uint64_t n, double alpha);
  uint64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

class Dataset {
 public:
  /// Mean revisions per page; each page's latest revision is its hot tuple.
  static constexpr uint64_t kRevisionsPerPage = 20;
  /// Share of reads that go to a page's latest revision (the rest are
  /// uniform over all revisions).
  static constexpr double kLatestShare = 0.999;
  static constexpr double kAlpha = 0.5;

  Dataset(uint64_t seed, uint64_t rows);

  uint64_t rows() const { return rows_; }
  uint64_t pages() const { return latest_.size(); }

  nblb::Row MakeRow(uint64_t key, uint32_t version) const;
  nblb::Row MakeProjection(uint64_t key, uint32_t version) const;

  /// True iff `got` is exactly MakeRow(key, version); else sets *why.
  bool RowMatches(const nblb::Row& got, uint64_t key, uint32_t version,
                  std::string* why) const;
  /// True iff `got` is exactly MakeProjection(key, version).
  bool ProjectionMatches(const nblb::Row& got, uint64_t key, uint32_t version,
                         std::string* why) const;
  /// The version a full row or a projection claims through its rev_len, or
  /// -1 if rev_len is missing or below the key's base length.
  int64_t VersionOf(const nblb::Row& got, size_t len_column,
                    uint64_t key) const;

  /// A read key: with probability kLatestShare the latest revision of a
  /// zipf(kAlpha)-popular page, else a uniform revision.
  uint64_t SampleReadKey(Rng* rng) const;

  /// Payload bytes of a loaded row: 8 per integer, string lengths as sent.
  double MeanContentBytes() const;

 private:
  int64_t BaseLen(uint64_t key) const;
  std::string Comment(uint64_t key, uint32_t version) const;
  std::string UserText(uint64_t key) const;
  std::string Timestamp(uint64_t key) const;

  uint64_t seed_;
  uint64_t rows_;
  std::vector<uint32_t> page_of_;    // [key - 1] -> page
  std::vector<uint32_t> parent_of_;  // [key - 1] -> previous rev of the page
  std::vector<uint32_t> latest_;     // [page] -> latest rev_id
  std::vector<uint32_t> rank_page_;  // popularity rank -> page
  Zipf zipf_;
};

}  // namespace perfbench
