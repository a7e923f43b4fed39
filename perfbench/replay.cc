// Per-layer replays: the op mix a run recorded (counts per commit, mean
// sizes) pushed through one layer's public API with nothing else running,
// timed with the wall clock. Each replay runs three times and reports the
// median ns per operation. The difference between the replays' sum and the
// measured CPU per commit is what the layers do only in combination
// (cache misses across layers, harness and callback glue): it is reported
// as tm.unattributed_us_per_commit.

#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "lock/lock_manager.h"
#include "net/network.h"
#include "sim/sim_context.h"
#include "tm/protocol_messages.h"
#include "util/format.h"
#include "util/logging.h"
#include "wal/log_manager.h"

namespace perfbench {
namespace {

constexpr uint64_t kMinOps = 20'000;
constexpr uint64_t kMaxOps = 200'000;

uint64_t OpsFor(uint64_t recorded) {
  return std::clamp<uint64_t>(recorded, kMinOps, kMaxOps);
}

template <typename Fn>
double MedianNsPerOp(uint64_t ops, Fn&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = WallNs();
    body(ops);
    ns.push_back(static_cast<double>(WallNs() - t0) / static_cast<double>(ops));
  }
  return Median(ns);
}

class NullEndpoint : public tpc::net::Endpoint {
 public:
  void OnMessage(const tpc::net::Message&) override {}
  bool IsUp() const override { return true; }
};

double ReplayKernelNs(uint64_t events) {
  return MedianNsPerOp(OpsFor(events), [](uint64_t ops) {
    tpc::sim::EventQueue q;
    uint64_t fired = 0;
    uint64_t done = 0;
    while (done < ops) {
      const uint64_t batch = std::min<uint64_t>(4096, ops - done);
      // Delays spread over a few ms, like network and device completions.
      for (uint64_t i = 0; i < batch; ++i)
        q.ScheduleAfter(static_cast<tpc::sim::Time>((i * 7919) % 4000),
                        [&fired] { ++fired; });
      q.Run();
      done += batch;
    }
    TPC_CHECK(fired == ops);
  });
}

double ReplayNetNs(uint64_t messages, double mean_bytes) {
  const std::string bytes(static_cast<size_t>(std::max(1.0, mean_bytes)), 'd');
  return MedianNsPerOp(OpsFor(messages), [&bytes](uint64_t ops) {
    tpc::sim::SimContext ctx;
    ctx.trace().set_capture(false);
    tpc::net::Network net(&ctx);
    net.set_tracing(false);
    NullEndpoint a, b;
    net.Register("a", &a);
    net.Register("b", &b);
    const uint32_t ida = net.InternId("a");
    const uint32_t idb = net.InternId("b");
    for (uint64_t i = 0; i < ops; ++i) {
      tpc::net::Message m;
      m.from = ida;
      m.to = idb;
      m.kind = tpc::net::MsgKind::kPdu;
      m.payload = net.AcquirePayload();
      net.PayloadBuffer(m.payload).assign(bytes);
      TPC_CHECK_OK(net.Send(std::move(m)));
      if (i % 256 == 255) ctx.events().Run();
    }
    ctx.events().Run();
    TPC_CHECK(net.stats().messages_delivered == ops);
  });
}

double ReplayCodecNs(uint64_t pdus, double app_fraction, double mean_app_bytes) {
  const std::string app(static_cast<size_t>(std::max(1.0, mean_app_bytes)), 'd');
  return MedianNsPerOp(OpsFor(pdus), [&](uint64_t ops) {
    std::string buffer;
    uint64_t decoded = 0;
    double app_credit = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      tpc::tm::Pdu pdu;
      pdu.txn = i + 1;
      buffer.clear();
      tpc::tm::PduWriter writer(&buffer);
      app_credit += app_fraction;
      if (app_credit >= 1.0) {
        app_credit -= 1.0;
        pdu.type = tpc::tm::PduType::kAppData;
        writer.Append(pdu, app);
      } else {
        pdu.type = tpc::tm::PduType::kVote;
        pdu.vote = tpc::rm::Vote::kYes;
        writer.Append(pdu);
      }
      tpc::tm::PduCursor cursor(buffer);
      while (cursor.Next()) decoded += cursor.data().size() + 1;
      TPC_CHECK_OK(cursor.status());
    }
    TPC_CHECK(decoded >= ops);
  });
}

double ReplayWalNs(uint64_t appends, double forced_fraction, double mean_bytes) {
  return MedianNsPerOp(OpsFor(appends), [&](uint64_t ops) {
    tpc::sim::SimContext ctx;
    ctx.trace().set_capture(false);
    tpc::wal::LogManager log(&ctx, "r", /*force_latency=*/0);
    tpc::wal::LogRecord record;
    record.type = tpc::wal::RecordType::kRmUpdate;
    record.owner = "r.rm0";
    record.body.assign(static_cast<size_t>(std::max(0.0, mean_bytes - 32)), 'b');
    uint64_t acked = 0;
    double forced_credit = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      record.txn = i + 1;
      forced_credit += forced_fraction;
      const bool force = forced_credit >= 1.0;
      if (force) forced_credit -= 1.0;
      log.Append(record, force, [&acked] { ++acked; });
      if (force) ctx.events().Run();
      // Keep the durable image small: checkpoints truncate in the engine.
      if (i % 4096 == 4095) {
        ctx.events().Run();
        log.DiscardPrefix(log.durable_lsn());
      }
    }
    ctx.events().Run();
    TPC_CHECK(acked == ops);
  });
}

double ReplayLockNs(uint64_t acquires, double acquires_per_txn) {
  const uint64_t per_txn =
      std::max<uint64_t>(1, static_cast<uint64_t>(acquires_per_txn + 0.5));
  return MedianNsPerOp(OpsFor(acquires), [per_txn](uint64_t ops) {
    tpc::sim::SimContext ctx;
    ctx.trace().set_capture(false);
    tpc::lock::LockManager locks(&ctx, "r");
    std::vector<tpc::lock::KeyId> keys;
    for (int k = 0; k < 1024; ++k)
      keys.push_back(locks.InternKey(tpc::StringPrintf("k%d", k)));
    uint64_t granted = 0;
    uint64_t txn = 1;
    for (uint64_t done = 0; done < ops; ++txn) {
      for (uint64_t j = 0; j < per_txn && done < ops; ++j, ++done)
        locks.Acquire(txn, keys[(txn * per_txn + j) % keys.size()],
                      tpc::lock::LockMode::kExclusive,
                      [&granted](tpc::Status st) { granted += st.ok(); });
      locks.ReleaseAll(txn);
    }
    TPC_CHECK(granted == ops);
  });
}

}  // namespace

void AddReplays(Sheet* sheet, double cpu_us_per_commit, bool sim_kernel,
                bool sim_network) {
  auto per_commit = [sheet](const char* name) { return sheet->Get(name); };
  // Absolute op counts for sizing the replays (a few rounds' worth).
  const double commits = std::max(1.0, sheet->Get("_commits_per_round"));
  auto total = [commits](double per) {
    return static_cast<uint64_t>(per * commits);
  };

  const double messages = per_commit("net.messages_per_commit");
  const double events = per_commit("sim.events_per_commit");
  double sim_us = 0, net_us = 0;
  if (sim_kernel && events > 0) {
    const double ns = ReplayKernelNs(total(events));
    sheet->Set("sim.kernel_ns_per_event", ns);
    // Message deliveries are events too; their cost is in the net replay.
    sim_us = ns * std::max(0.0, events - (sim_network ? messages : 0)) * 1e-3;
  }
  if (sim_network && messages > 0) {
    const double ns = ReplayNetNs(total(messages),
                                  per_commit("net.bytes_per_commit") / messages);
    sheet->Set("net.ns_per_message", ns);
    net_us = ns * messages * 1e-3;
  }
  sheet->Set("sim.replayed_us_per_commit", sim_us);
  sheet->Set("net.replayed_us_per_commit", net_us);

  double codec_us = 0;
  if (messages > 0) {
    const double app_flows = sheet->Get("_app_flows_per_commit");
    const double app_bytes = sheet->Get("_app_bytes_per_commit");
    const double ns = ReplayCodecNs(
        total(messages), std::min(1.0, app_flows / messages),
        app_flows > 0 ? app_bytes / app_flows : 0);
    sheet->Set("tm.codec_ns_per_pdu", ns);
    codec_us = ns * messages * 1e-3;
  }
  sheet->Set("tm.codec_replayed_us_per_commit", codec_us);

  double wal_us = 0;
  const double appends = per_commit("wal.appends_per_commit");
  if (appends > 0) {
    const double ns = ReplayWalNs(
        total(appends), per_commit("wal.forced_appends_per_commit") / appends,
        per_commit("wal.bytes_per_commit") / appends);
    sheet->Set("wal.append_ns", ns);
    wal_us = ns * appends * 1e-3;
  }
  sheet->Set("wal.replayed_us_per_commit", wal_us);

  double lock_us = 0;
  const double acquires = per_commit("lock.acquires_per_commit");
  if (acquires > 0) {
    const double ns = ReplayLockNs(total(acquires), acquires);
    sheet->Set("lock.ns_per_acquire_release", ns);
    lock_us = ns * acquires * 1e-3;
  }
  sheet->Set("lock.replayed_us_per_commit", lock_us);

  const double replayed = sim_us + net_us + codec_us + wal_us + lock_us;
  sheet->Set("tm.unattributed_us_per_commit", cpu_us_per_commit - replayed);
  sheet->Note(tpc::StringPrintf(
      "replayed us/commit: sim %.2f  net %.2f  codec %.2f  wal %.2f  lock %.2f"
      "  = %.2f of %.2f measured; unattributed %.2f",
      sim_us, net_us, codec_us, wal_us, lock_us, replayed, cpu_us_per_commit,
      cpu_us_per_commit - replayed));
}

}  // namespace perfbench
