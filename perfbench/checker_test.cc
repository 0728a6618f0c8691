// Self-tests for the benchmark's checker: every kind of wrong reply the
// serving stack could send must be reported as wrong, and the right reply
// must pass. Exits non-zero on the first check that misbehaves.
//
// Run: ctest in the benchmark's build directory, or
//      python3 perfbench/run.py --self-test

#include <cstdio>
#include <string>

#include "checker.h"

namespace perfbench {
namespace {

using nblb::RequestKind;
using nblb::RequestResult;
using nblb::Status;
using nblb::Value;

int failures = 0;

void Expect(bool ok, const char* what, bool want_ok, const std::string& why) {
  if (ok == want_ok) {
    std::printf("ok    %s%s%s\n", what, want_ok ? "" : ": ",
                want_ok ? "" : why.c_str());
  } else {
    std::printf("FAIL  %s: checker said %s\n", what,
                ok ? "correct" : ("wrong (" + why + ")").c_str());
    ++failures;
  }
}

RequestResult Reply(nblb::Row row) {
  RequestResult r;
  r.row = std::move(row);
  return r;
}

void Run() {
  const Dataset ds(/*seed=*/7, /*rows=*/2000);
  const Checker checker(&ds);
  std::string why;
  const uint64_t key = 1234;

  // Controls: the right answers pass.
  Expect(checker.CheckReply({RequestKind::kGet, key, 3},
                            Reply(ds.MakeRow(key, 3)), &why),
         "correct full row", true, why);
  Expect(checker.CheckReply({RequestKind::kGetProjected, key, 3},
                            Reply(ds.MakeProjection(key, 3)), &why),
         "correct projection", true, why);
  uint32_t version = 0;
  Expect(checker.CheckRecovered(key, 3, 4, Reply(ds.MakeRow(key, 4)),
                                &version, &why) &&
             version == 4,
         "recovered version between acked and sent", true, why);
  Expect(Checker::CheckServedCount("requests", 640, 640, &why),
         "matching served count", true, why);

  // A reply with one corrupted column.
  nblb::Row corrupt = ds.MakeRow(key, 0);
  corrupt[kColUserText] = Value::Varchar(corrupt[kColUserText].AsString() + "x");
  Expect(checker.CheckReply({RequestKind::kGet, key, 0}, Reply(corrupt), &why),
         "reply with one corrupted column", false, why);

  // A stale projected value: the cached (rev_page, rev_len) of the version
  // before the last update.
  Expect(checker.CheckReply({RequestKind::kGetProjected, key, 5},
                            Reply(ds.MakeProjection(key, 4)), &why),
         "stale projected value", false, why);

  // A dropped acked update: recovery shows the version before the ack.
  Expect(checker.CheckRecovered(key, 6, 6, Reply(ds.MakeRow(key, 5)),
                                &version, &why),
         "dropped acked update", false, why);

  // A recovered version that was never sent.
  Expect(checker.CheckRecovered(key, 6, 7, Reply(ds.MakeRow(key, 8)),
                                &version, &why),
         "recovered version never sent", false, why);

  // A served-request count off by one.
  Expect(Checker::CheckServedCount("requests", 641, 640, &why),
         "served-request count off by one", false, why);

  // A failed status and a missing row are wrong too, during serving and
  // after recovery.
  RequestResult missing;
  missing.status = Status::NotFound();
  Expect(checker.CheckReply({RequestKind::kGet, key, 0}, missing, &why),
         "missing row", false, why);
  RequestResult io_error = Reply(ds.MakeRow(key, 0));
  io_error.status = Status::IOError("device read failed");
  Expect(checker.CheckReply({RequestKind::kGet, key, 0}, io_error, &why),
         "read with an error status", false, why);
  Expect(checker.CheckReply({RequestKind::kGetProjected, key, 0}, io_error,
                            &why),
         "projected read with an error status", false, why);
  Expect(checker.CheckReply({RequestKind::kUpdate, key, 1}, io_error, &why),
         "update with an error status", false, why);
  Expect(checker.CheckRecovered(key, 0, 0, io_error, &version, &why),
         "recovered read with an error status", false, why);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Run();
  if (perfbench::failures > 0) {
    std::printf("%d checker self-test(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("all checker self-tests passed\n");
  return 0;
}
