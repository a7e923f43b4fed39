// A small scenario-script language for driving the simulator from text
// files — protocol experiments without writing C++. Used by the `tpcsim`
// command-line tool (tools/tpcsim.cc) and by tests; sample scripts live in
// scenarios/.
//
// One command per line; '#' starts a comment. Durations accept us/ms/s.
//
//   node <name> [protocol=pa|pn|pc|basic] [reliable] [ok_to_leave_out]
//               [shared_log_with=<host>] [read_only_opt=off] [last_agent]
//               [vote_reliable] [include_idle] [leave_out]
//               [heuristic=commit:<dur>|abort:<dur>] [nonblocking]
//   connect <a> <b> [long_locks] [candidate]     # options on a's side
//   latency <a> <b> <dur>
//   handler <node> write                         # write a key on app data
//   begin <txn> <node>
//   write <node> <txn> <key> <value>
//   work <txn> <from> <to> [payload]
//   commit <txn> <node>                          # asynchronous
//   commit-wait <txn> <node>                     # drive until completion
//   abort <txn> <node>
//   unsolicited <txn> <node>
//   run <dur>
//   crash-at <node> <point> [occurrence]        # point: tm/crash_points.h
//   crash <node>
//   restart <node>
//   partition <a> <b>   |   heal <a> <b>
//   checkpoint <node>
//   expect <txn> committed|aborted|pending|damage|no-damage|incomplete
//   expect-view <node> <txn> <outcome-name>   # e.g. committed, in-doubt
//   expect-damage-at <node> <txn>
//   expect-key <node> <key> <value>|absent
//   expect-flows <txn> <n>                       # cluster-total flows
//   expect-forced <txn> <n>                      # cluster-total forced
//   costs <txn>
//   diagram <txn> <node> [<node> ...]
//   trace <txn>

#ifndef TPC_HARNESS_SCENARIO_SCRIPT_H_
#define TPC_HARNESS_SCENARIO_SCRIPT_H_

#include <string>

#include "util/result.h"

namespace tpc::harness {

/// Outcome of one script run.
struct ScriptReport {
  int commands = 0;      ///< commands executed
  int expect_failed = 0; ///< expect-* commands that did not hold
  std::string output;    ///< printed output (diagrams, costs, failures)
};

/// Parses and executes `script`. Returns InvalidArgument on syntax errors
/// (with line information); expectation failures are reported in the
/// ScriptReport, not as errors.
Result<ScriptReport> RunScenarioScript(const std::string& script);

}  // namespace tpc::harness

#endif  // TPC_HARNESS_SCENARIO_SCRIPT_H_
