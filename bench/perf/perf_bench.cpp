// Simulator benchmark: runs one workload (a fixed set of simulation cells,
// each one protocol x point x seed) through the public harness API and
// prints one JSON object with its metrics. See README.md in this directory
// for the workloads, the metrics and the layer each metric speaks for.
//
// Usage: perf_bench --workload <paper40|scale1000|disrupted40> --seed <n>
//                   --seconds <s> --trace <0|1>
//
//   --trace 0  repeats whole rounds of the workload while another round
//              still fits in --seconds (at least one) and reports the
//              end-to-end metrics as medians over rounds.
//   --trace 1  runs one untraced round, re-runs one cell, then runs one
//              round with the timing decorator registered over every
//              built-in router, and reports the per-layer metrics.
//
// Every cell is checked (see check_cell); a cell that throws or fails a
// check counts as failed. The workload-level checks (the paper's claim,
// the determinism guards) clear "correct".
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/network.h"
#include "harness/protocol_registry.h"
#include "harness/scenario.h"
#include "sim/event_category.h"
#include "stats/run_result.h"
#include "timing_router.h"

#ifndef AG_PERF_COMPILER
#define AG_PERF_COMPILER "unknown"
#endif
#ifndef AG_PERF_BUILD_TYPE
#define AG_PERF_BUILD_TYPE "unknown"
#endif
#ifndef AG_PERF_FLAGS
#define AG_PERF_FLAGS ""
#endif

namespace {

using namespace ag;
using harness::Protocol;

double now_s() {
  // ag-lint: allow(determinism, wall-clock measures the harness from outside the simulation)
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

// SplitMix64: derives each point's seed from the run's base seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t point) {
  std::uint64_t z = base * 0x9E3779B97F4A7C15ull + point + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// ------------------------------------------------------------- workloads

struct Cell {
  std::size_t point;  // index of the point (range/speed/churn setting)
  double x;           // the point's value, as aggregate_point records it
  harness::ScenarioConfig config;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  // The paper's claim: summed over paired cells, `gossip` delivers more
  // than its bare substrate `bare`.
  Protocol gossip;
  Protocol bare;
};

// Seeds per point of the 40-node workloads: two replicates halve the
// seed-to-seed variance of the summed work against one.
constexpr std::size_t kSeedsPerPoint = 2;

void add_point(Workload& w, std::size_t point, double x, std::uint64_t base_seed,
               const harness::ScenarioConfig& config,
               const std::vector<Protocol>& protocols) {
  // Paired cells of a replicate share the seed, so each protocol faces
  // the same mobility and the same faults.
  for (std::size_t k = 0; k < kSeedsPerPoint; ++k) {
    for (const Protocol p : protocols) {
      harness::ScenarioConfig c = config;
      c.with_protocol(p).with_seed(mix_seed(base_seed, point * kSeedsPerPoint + k));
      w.cells.push_back({point, x, c});
    }
  }
}

// Paper section 5.1: 40 nodes, 200x200 m, 600 s, 2201 CBR packets of 64
// bytes to a one-third-member group; the ranges and speeds of Figs 2-5.
Workload paper40(std::uint64_t seed) {
  Workload w{"paper40", {}, Protocol::maodv_gossip, Protocol::maodv};
  std::size_t point = 0;
  for (const double vmax : {1.0, 10.0}) {
    for (const double range : {45.0, 65.0, 85.0}) {
      harness::ScenarioConfig c;
      c.with_range(range).with_max_speed(vmax);
      add_point(w, point++, range, seed, c, {Protocol::maodv_gossip, Protocol::maodv});
    }
  }
  return w;
}

// scale_smoke's constant-degree geometry at 1000 nodes: range
// 75*sqrt(40/1000) m, 13 members, 80 s with traffic from 20 s to 60 s.
Workload scale1000() {
  Workload w{"scale1000", {}, Protocol::maodv_gossip, Protocol::maodv};
  constexpr double kNodes = 1000.0;
  harness::ScenarioConfig c;
  c.with_nodes(static_cast<std::size_t>(kNodes))
      .with_range(75.0 * std::sqrt(40.0 / kNodes))
      .with_max_speed(1.0);
  c.member_fraction = 13.0 / kNodes;
  c.duration = sim::SimTime::seconds(80.0);
  c.workload.start = sim::SimTime::seconds(20.0);
  c.workload.end = sim::SimTime::seconds(60.0);
  // The cells run scale_smoke's own seed (1) whatever the base seed: at
  // this size the route-discovery storm makes the outcome chaotic across
  // seeds (delivered messages and run time vary several-fold), which no
  // affordable number of cells could average out. Fixed inputs keep the
  // point comparable with scale_smoke's historical 1000-node figures.
  c.with_seed(1);
  for (const Protocol p : {Protocol::maodv_gossip, Protocol::maodv}) {
    harness::ScenarioConfig cell = c;
    cell.with_protocol(p);
    w.cells.push_back({0, kNodes, cell});
  }
  return w;
}

// figure_churn's full fault background (15 % crashes with wipe, one 60 s
// partition) at churn {0, 4}/min, over the five core protocols, with the
// custody tier and 200 users per member at duty 0.25.
Workload disrupted40(std::uint64_t seed) {
  Workload w{"disrupted40", {}, Protocol::odmrp_gossip, Protocol::odmrp};
  harness::ScenarioConfig base;
  base.with_range(65.0).with_max_speed(1.0);
  base.faults.spec.crash_fraction = 0.15;
  base.faults.spec.crash_downtime_s = 60.0;
  base.faults.spec.partition_duration_s = 60.0;
  base.faults.spec.churn_downtime_s = 30.0;
  base.with_custody(64, 2).with_sessions(200, 0.25);
  const std::vector<Protocol> protocols = harness::ProtocolRegistry::instance().all();
  std::size_t point = 0;
  for (const double churn : {0.0, 4.0}) {
    harness::ScenarioConfig c = base;
    c.faults.spec.churn_per_min = churn;
    add_point(w, point++, churn, seed, c, protocols);
  }
  return w;
}

bool make_workload(const std::string& name, std::uint64_t seed, Workload& out) {
  if (name == "paper40") {
    out = paper40(seed);
  } else if (name == "scale1000") {
    out = scale1000();
  } else if (name == "disrupted40") {
    out = disrupted40(seed);
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------ counters

// Every deterministic counter of a run, flattened in a fixed order: what
// the determinism guards compare exactly.
std::vector<double> counters_of(const stats::RunResult& r) {
  std::vector<double> v;
  const auto u = [&v](std::uint64_t x) { v.push_back(static_cast<double>(x)); };
  u(r.seed);
  u(r.packets_sent);
  u(r.members.size());
  for (const stats::MemberResult& m : r.members) {
    u(m.node.value());
    u(m.received);
    u(m.via_gossip);
    u(m.replies_received);
    u(m.replies_useful);
    u(r.eligible_of(m));
    v.push_back(m.mean_latency_s);
  }
  const stats::NetworkTotals& t = r.totals;
  for (const std::uint64_t x :
       {t.channel_transmissions, t.phy_deliveries, t.phy_suppressed_down,
        t.phy_suppressed_partition, t.sim_events, t.mac_backoff_slots_credited,
        t.mac_difs_elided, t.phy_rx_elided, t.phy_rx_coalesced, t.table_probes, t.pool_hits,
        t.pool_misses, t.mac_unicast, t.mac_broadcast, t.mac_collisions, t.mac_queue_drops,
        t.rreq_originated, t.rerr_sent, t.grph_sent, t.mact_sent, t.data_forwarded,
        t.gossip_walks, t.gossip_replies, t.nm_updates, t.repairs_started, t.partitions,
        t.leaders_elected, t.custody_stored, t.custody_evicted_ttl,
        t.custody_evicted_capacity, t.custody_offers, t.custody_offers_failed,
        t.custody_accepted, t.custody_duplicates, t.sessions.sessions,
        t.sessions.users_served, t.sessions.user_eligible}) {
    u(x);
  }
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    u(t.ev_scheduled[c]);
    u(t.ev_executed[c]);
  }
  const stats::FaultStats& f = r.faults;
  for (const std::uint64_t x :
       {f.crashes, f.reboots, f.leaves, f.joins, f.partitions, f.heals}) {
    u(x);
  }
  v.push_back(f.node_down_s);
  v.push_back(f.partitioned_s);
  return v;
}

std::uint64_t delivered(const stats::RunResult& r) {
  std::uint64_t n = 0;
  for (const stats::MemberResult& m : r.members) n += m.received;
  return n;
}

// ---------------------------------------------------------- output checks

// Properties every cell's output must have. Returns the first violation,
// or an empty string.
std::string check_cell(const harness::ScenarioConfig& c, const stats::RunResult& r) {
  const auto fail = [](const std::string& what) { return what; };
  const std::uint32_t expected_sent = static_cast<std::uint32_t>(
      (c.workload.end - c.workload.start).count_us() / c.workload.interval.count_us() + 1);
  if (r.packets_sent != expected_sent) {
    return fail("packets_sent " + std::to_string(r.packets_sent) + " != " +
                std::to_string(expected_sent));
  }
  if (r.members.empty()) return fail("no member rows");
  for (const stats::MemberResult& m : r.members) {
    const std::uint64_t eligible = r.eligible_of(m);
    const std::string who = "member " + std::to_string(m.node.value());
    if (m.received > eligible) return fail(who + ": received > eligible");
    if (eligible > r.packets_sent) return fail(who + ": eligible > packets_sent");
    if (m.via_gossip > m.received) return fail(who + ": via_gossip > received");
    if (m.replies_useful > m.replies_received) {
      return fail(who + ": replies_useful > replies_received");
    }
  }
  const stats::NetworkTotals& t = r.totals;
  std::uint64_t executed = 0;
  for (std::size_t k = 0; k < sim::kEventCategoryCount; ++k) {
    if (t.ev_executed[k] > t.ev_scheduled[k]) {
      return fail(std::string{"executed > scheduled for "} + sim::event_category_name(k));
    }
    executed += t.ev_executed[k];
  }
  if (executed != t.sim_events) return fail("sim_events != sum of executed");
  if (t.phy_deliveries > t.channel_transmissions * (c.node_count - 1)) {
    return fail("phy deliveries > tx_frames * (nodes - 1)");
  }
  if (t.sessions.users_served > t.sessions.user_eligible) {
    return fail("users_served > user_eligible");
  }
  return {};
}

// -------------------------------------------------------------- a round

struct CellRun {
  bool ok{false};
  std::string error;
  stats::RunResult result;
  double setup_s{0.0};
  double run_s{0.0};
  double result_s{0.0};
};

struct Round {
  std::vector<CellRun> cells;
  double wall_s{0.0};
  double setup_s{0.0};
  double run_s{0.0};
  double result_s{0.0};
  double aggregate_s{0.0};
  std::size_t failed{0};
  std::vector<std::string> errors;  // workload-level check failures
};

CellRun run_cell(const Cell& cell) {
  CellRun out;
  try {
    const double t0 = now_s();
    auto net = std::make_unique<harness::Network>(cell.config);
    const double t1 = now_s();
    net->run();
    const double t2 = now_s();
    out.result = net->result();
    const double t3 = now_s();
    out.setup_s = t1 - t0;
    out.run_s = t2 - t1;
    out.result_s = t3 - t2;
    out.error = check_cell(cell.config, out.result);
    out.ok = out.error.empty();
  } catch (const std::exception& e) {
    out.error = std::string{"threw: "} + e.what();
  }
  return out;
}

Round run_round(const Workload& w) {
  Round round;
  const double start = now_s();
  for (const Cell& cell : w.cells) {
    round.cells.push_back(run_cell(cell));
    const CellRun& c = round.cells.back();
    round.setup_s += c.setup_s;
    round.run_s += c.run_s;
    round.result_s += c.result_s;
    if (!c.ok) ++round.failed;
  }

  // Aggregate each (protocol, point) the way the figure benches do, and
  // check the aggregate against the run it was folded from.
  const double agg0 = now_s();
  std::uint64_t gossip_delivered = 0;
  std::uint64_t bare_delivered = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const CellRun& c = round.cells[i];
    if (!c.ok) continue;
    const harness::SeriesPoint p = harness::aggregate_point(w.cells[i].x, {c.result});
    if (p.runs.size() != 1 ||
        p.mean_transmissions != c.result.totals.channel_transmissions ||
        std::fabs(p.mean_delivery_ratio - c.result.delivery_ratio()) > 1e-12 ||
        p.mean_delivery_ratio < 0.0 || p.mean_delivery_ratio > 1.0) {
      round.errors.push_back("aggregate_point disagrees with cell " + std::to_string(i));
    }
    if (w.cells[i].config.protocol == w.gossip) gossip_delivered += delivered(c.result);
    if (w.cells[i].config.protocol == w.bare) bare_delivered += delivered(c.result);
  }
  round.aggregate_s = now_s() - agg0;
  if (round.failed == 0 && gossip_delivered <= bare_delivered) {
    round.errors.push_back(
        "paper claim: " + harness::ProtocolRegistry::instance().name_of(w.gossip) +
        " delivered " + std::to_string(gossip_delivered) + " <= " +
        harness::ProtocolRegistry::instance().name_of(w.bare) + " " +
        std::to_string(bare_delivered));
  }
  round.wall_s = now_s() - start;
  return round;
}

// Network construction only, over every cell: extra samples of setup_s.
double setup_pass(const Workload& w) {
  double total = 0.0;
  for (const Cell& cell : w.cells) {
    const double t0 = now_s();
    auto net = std::make_unique<harness::Network>(cell.config);
    total += now_s() - t0;
  }
  return total;
}

// Compares two rounds cell by cell; appends a message per mismatch.
void expect_same(const char* what, const Round& a, const Round& b,
                 std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < a.cells.size() && i < b.cells.size(); ++i) {
    if (!a.cells[i].ok || !b.cells[i].ok) continue;
    if (counters_of(a.cells[i].result) != counters_of(b.cells[i].result)) {
      errors.push_back(std::string{what} + ": counters differ in cell " + std::to_string(i));
    }
  }
}

// ------------------------------------------------------------- tracing

perf::SeamClock g_clock;

perf::Family family_of(Protocol p) {
  switch (p) {
    case Protocol::odmrp:
    case Protocol::odmrp_gossip:
      return perf::Family::odmrp;
    case Protocol::flooding:
    case Protocol::flooding_gossip:
      return perf::Family::flood;
    default:
      return perf::Family::maodv;
  }
}

// Shadows every built-in entry the workload uses with a timing-decorated
// copy; restores the originals on destruction.
class TracedRegistry {
 public:
  explicit TracedRegistry(const Workload& w) {
    harness::ProtocolRegistry& reg = harness::ProtocolRegistry::instance();
    for (const Cell& cell : w.cells) {
      const Protocol p = cell.config.protocol;
      if (std::any_of(saved_.begin(), saved_.end(),
                      [p](const harness::ProtocolEntry& e) { return e.protocol == p; })) {
        continue;
      }
      saved_.push_back(reg.entry(p));
      harness::ProtocolEntry traced = saved_.back();
      traced.factory = [inner = saved_.back().factory,
                        family = family_of(p)](const harness::RouterContext& ctx)
          -> std::unique_ptr<harness::MulticastRouter> {
        return std::make_unique<perf::TimingRouter>(ctx.mac, inner(ctx), family, g_clock);
      };
      reg.add(std::move(traced));
    }
  }
  ~TracedRegistry() {
    for (harness::ProtocolEntry& e : saved_) {
      harness::ProtocolRegistry::instance().add(std::move(e));
    }
  }
  TracedRegistry(const TracedRegistry&) = delete;
  TracedRegistry& operator=(const TracedRegistry&) = delete;

 private:
  std::vector<harness::ProtocolEntry> saved_;
};

// --------------------------------------------------------------- output

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident set of this process image, from /proc/self/status. (The
// kernel's ru_maxrss survives execve, so it would report the launching
// process's peak whenever that is the larger one.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// `errors` are workload-level check failures (they clear "correct");
// `cell_errors` say why cells failed (they count in "failed").
void print_result(std::size_t attempted, std::size_t failed, const std::vector<Metric>& metrics,
                  std::size_t rounds, const std::vector<std::string>& errors,
                  const std::vector<std::string>& cell_errors) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              errors.empty() ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}, \"info\": {\"rounds\": %zu, \"compiler\": %s, \"build_type\": %s, "
              "\"flags\": %s, \"errors\": [",
              rounds, json_string(AG_PERF_COMPILER).c_str(),
              json_string(AG_PERF_BUILD_TYPE).c_str(), json_string(AG_PERF_FLAGS).c_str());
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s%s", i > 0 ? ", " : "", json_string(errors[i]).c_str());
  }
  std::printf("], \"cell_errors\": [");
  for (std::size_t i = 0; i < cell_errors.size(); ++i) {
    std::printf("%s%s", i > 0 ? ", " : "", json_string(cell_errors[i]).c_str());
  }
  std::printf("]}}\n");
}

void collect_errors(const Workload& w, const Round& r, std::vector<std::string>& errors,
                    std::vector<std::string>& cell_errors) {
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    if (!r.cells[i].ok) {
      cell_errors.push_back("cell " + std::to_string(i) + " (" +
                       harness::ProtocolRegistry::instance().name_of(
                           w.cells[i].config.protocol) +
                       "): " + r.cells[i].error);
    }
  }
  errors.insert(errors.end(), r.errors.begin(), r.errors.end());
}

// Index of the cheapest cell of a round (the one the rerun guard repeats).
std::size_t cheapest_cell(const Round& r) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < r.cells.size(); ++i) {
    if (r.cells[i].run_s < r.cells[best].run_s) best = i;
  }
  return best;
}

void rerun_guard(const Workload& w, const Round& r, std::vector<std::string>& errors) {
  const std::size_t i = cheapest_cell(r);
  if (!r.cells[i].ok) return;
  const CellRun again = run_cell(w.cells[i]);
  if (!again.ok || counters_of(again.result) != counters_of(r.cells[i].result)) {
    errors.push_back("same-seed rerun of cell " + std::to_string(i) + " differs");
  }
}

// The deterministic counters summed over a round's cells.
struct Sums {
  std::uint64_t scheduled[sim::kEventCategoryCount]{};
  std::uint64_t executed[sim::kEventCategoryCount]{};
  stats::NetworkTotals t;
  std::uint64_t packets_sent{0}, delivered{0}, via_gossip{0};
  std::uint64_t replies_received{0}, replies_useful{0};
  double latency_weighted_s{0.0};
  std::uint64_t slots_elided{0}, evicted{0};
  std::uint64_t crashes{0}, partitions{0};
  double node_down_s{0.0};
};

Sums sum_round(const Round& r) {
  Sums s;
  for (const CellRun& c : r.cells) {
    const stats::RunResult& x = c.result;
    const stats::NetworkTotals& t = x.totals;
    for (std::size_t k = 0; k < sim::kEventCategoryCount; ++k) {
      s.scheduled[k] += t.ev_scheduled[k];
      s.executed[k] += t.ev_executed[k];
    }
    s.t.sim_events += t.sim_events;
    s.t.channel_transmissions += t.channel_transmissions;
    s.t.phy_deliveries += t.phy_deliveries;
    s.t.phy_rx_elided += t.phy_rx_elided;
    s.t.phy_rx_coalesced += t.phy_rx_coalesced;
    s.t.phy_suppressed_down += t.phy_suppressed_down;
    s.t.phy_suppressed_partition += t.phy_suppressed_partition;
    s.t.mac_unicast += t.mac_unicast;
    s.t.mac_broadcast += t.mac_broadcast;
    s.t.mac_collisions += t.mac_collisions;
    s.t.mac_queue_drops += t.mac_queue_drops;
    s.slots_elided += t.mac_slots_elided();
    s.t.mac_difs_elided += t.mac_difs_elided;
    s.t.table_probes += t.table_probes;
    s.t.pool_hits += t.pool_hits;
    s.t.pool_misses += t.pool_misses;
    s.t.rreq_originated += t.rreq_originated;
    s.t.rerr_sent += t.rerr_sent;
    s.t.grph_sent += t.grph_sent;
    s.t.mact_sent += t.mact_sent;
    s.t.repairs_started += t.repairs_started;
    s.t.leaders_elected += t.leaders_elected;
    s.t.gossip_walks += t.gossip_walks;
    s.t.gossip_replies += t.gossip_replies;
    s.t.nm_updates += t.nm_updates;
    s.t.custody_stored += t.custody_stored;
    s.t.custody_offers += t.custody_offers;
    s.t.custody_accepted += t.custody_accepted;
    s.t.custody_duplicates += t.custody_duplicates;
    s.evicted += t.custody_evicted_ttl + t.custody_evicted_capacity;
    s.t.sessions.users_served += t.sessions.users_served;
    s.t.sessions.user_eligible += t.sessions.user_eligible;
    s.packets_sent += x.packets_sent;
    for (const stats::MemberResult& m : x.members) {
      s.delivered += m.received;
      s.via_gossip += m.via_gossip;
      s.replies_received += m.replies_received;
      s.replies_useful += m.replies_useful;
      s.latency_weighted_s += m.mean_latency_s * static_cast<double>(m.received);
    }
    s.crashes += x.faults.crashes;
    s.partitions += x.faults.partitions;
    s.node_down_s += x.faults.node_down_s;
  }
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double d(std::uint64_t x) { return static_cast<double>(x); }

// ----------------------------------------------------------------- modes

int run_plain(const Workload& w, double seconds) {
  std::vector<Round> rounds;
  std::vector<double> setup_samples;
  const double start = now_s();
  while (true) {
    rounds.push_back(run_round(w));
    setup_samples.push_back(rounds.back().setup_s);
    const double elapsed = now_s() - start;
    if (elapsed + rounds.back().wall_s > seconds) break;
  }
  // setup_s is a median over at least nine set-ups of every cell.
  constexpr std::size_t kSetupSamples = 9;
  while (setup_samples.size() < kSetupSamples) setup_samples.push_back(setup_pass(w));

  std::vector<std::string> errors;
  std::vector<std::string> cell_errors;
  std::size_t failed = 0;
  for (const Round& r : rounds) {
    collect_errors(w, r, errors, cell_errors);
    failed += r.failed;
  }
  const Round& first = rounds.front();
  for (std::size_t k = 1; k < rounds.size(); ++k) {
    expect_same("same-seed rerun", first, rounds[k], errors);
  }

  std::vector<double> wall;
  std::vector<double> run;
  for (const Round& r : rounds) {
    wall.push_back(r.wall_s);
    run.push_back(r.run_s);
  }
  const Sums s = sum_round(first);
  const std::vector<Metric> metrics = {
      {"wall_s", median(wall), "s"},
      {"run_s", median(run), "s"},
      {"setup_s", median(setup_samples), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"delivered_msgs", d(s.delivered), "count"},
      {"tx_per_delivery", ratio(d(s.t.channel_transmissions), d(s.delivered)), "frames/msg"},
  };
  print_result(rounds.size() * w.cells.size(), failed, metrics, rounds.size(), errors,
               cell_errors);
  return 0;
}

int run_traced(const Workload& w) {
  std::vector<std::string> errors;
  std::vector<std::string> cell_errors;
  const Round plain = run_round(w);
  collect_errors(w, plain, errors, cell_errors);
  rerun_guard(w, plain, errors);

  g_clock = perf::SeamClock{};
  Round traced;
  {
    const TracedRegistry shadow{w};
    traced = run_round(w);
  }
  collect_errors(w, traced, errors, cell_errors);
  expect_same("traced vs untraced", plain, traced, errors);
  const std::size_t failed = plain.failed + traced.failed;

  const Sums s = sum_round(plain);
  std::vector<Metric> m;
  std::uint64_t scheduled = 0;
  for (const std::uint64_t x : s.scheduled) scheduled += x;
  m.push_back({"sim.events_scheduled", d(scheduled), "count"});
  m.push_back({"sim.events_executed", d(s.t.sim_events), "count"});
  m.push_back({"sim.events_cancelled", d(scheduled - s.t.sim_events), "count"});
  m.push_back({"sim.ns_per_event", 1e9 * ratio(plain.run_s, d(s.t.sim_events)), "ns/event"});
  for (std::size_t k = 0; k < sim::kEventCategoryCount; ++k) {
    m.push_back({std::string{"sim.scheduled."} + sim::event_category_name(k),
                 d(s.scheduled[k]), "count"});
  }
  for (std::size_t k = 0; k < sim::kEventCategoryCount; ++k) {
    m.push_back({std::string{"sim.executed."} + sim::event_category_name(k),
                 d(s.executed[k]), "count"});
  }
  double seam_s = 0.0;
  for (std::size_t slot = 0; slot < perf::kSlotCount; ++slot) seam_s += g_clock.self_s(slot);
  m.push_back({"core.self_s", traced.run_s - seam_s, "s"});

  m.push_back({"phy.tx_frames", d(s.t.channel_transmissions), "count"});
  m.push_back({"phy.deliveries", d(s.t.phy_deliveries), "count"});
  m.push_back({"phy.rx_per_tx", ratio(d(s.t.phy_deliveries), d(s.t.channel_transmissions)),
               "rx/tx"});
  m.push_back({"phy.rx_elided", d(s.t.phy_rx_elided), "count"});
  m.push_back({"phy.rx_coalesced", d(s.t.phy_rx_coalesced), "count"});
  m.push_back({"phy.suppressed_down", d(s.t.phy_suppressed_down), "count"});
  m.push_back({"phy.suppressed_partition", d(s.t.phy_suppressed_partition), "count"});
  m.push_back({"mac.unicast", d(s.t.mac_unicast), "count"});
  m.push_back({"mac.broadcast", d(s.t.mac_broadcast), "count"});
  m.push_back({"mac.collisions", d(s.t.mac_collisions), "count"});
  m.push_back({"mac.queue_drops", d(s.t.mac_queue_drops), "count"});
  m.push_back({"mac.slots_elided", d(s.slots_elided), "count"});
  m.push_back({"mac.difs_elided", d(s.t.mac_difs_elided), "count"});
  m.push_back({"net.table_probes", d(s.t.table_probes), "count"});
  m.push_back({"net.pool_hits", d(s.t.pool_hits), "count"});
  m.push_back({"net.pool_misses", d(s.t.pool_misses), "count"});

  // Receptions at the router seam per net::Payload alternative, in variant
  // order. Custody handoffs are consumed by the custody decorator, which
  // sits above the router seam, so that kind is read from its counters.
  constexpr const char* kKinds[perf::kPayloadKinds] = {
      "data",  "rreq",   "rrep",         "rerr",           "hello",
      "mact",  "grph",   "gossip",       "gossip_reply",   "nearest_member",
      "join_query",      "join_reply",   "custody_handoff"};
  for (std::size_t k = 0; k < perf::kPayloadKinds; ++k) {
    const bool handoff = k + 1 == perf::kPayloadKinds;
    const std::uint64_t n = handoff ? s.t.custody_accepted + s.t.custody_duplicates
                                    : g_clock.rx_kind(k);
    m.push_back({std::string{"net.rx."} + kKinds[k], d(n), "count"});
  }

  m.push_back({"aodv.rreq_originated", d(s.t.rreq_originated), "count"});
  m.push_back({"aodv.rerr_sent", d(s.t.rerr_sent), "count"});
  m.push_back({"maodv.grph_sent", d(s.t.grph_sent), "count"});
  m.push_back({"maodv.mact_sent", d(s.t.mact_sent), "count"});
  m.push_back({"maodv.repairs_started", d(s.t.repairs_started), "count"});
  m.push_back({"maodv.leaders_elected", d(s.t.leaders_elected), "count"});
  const std::pair<const char*, perf::Family> families[] = {
      {"maodv", perf::Family::maodv},
      {"odmrp", perf::Family::odmrp},
      {"flood", perf::Family::flood}};
  for (const auto& [name, family] : families) {
    const std::string prefix = name;
    m.push_back({prefix + ".rx_s", g_clock.self_s(perf::rx_slot(family)), "s"});
    m.push_back({prefix + ".rx_calls", d(g_clock.calls(perf::rx_slot(family))), "count"});
    m.push_back({prefix + ".svc_s", g_clock.self_s(perf::svc_slot(family)), "s"});
  }
  m.push_back({"gossip.rx_s", g_clock.self_s(perf::kGossipSlot), "s"});
  m.push_back({"gossip.rx_calls", d(g_clock.calls(perf::kGossipSlot)), "count"});
  m.push_back({"gossip.walks", d(s.t.gossip_walks), "count"});
  m.push_back({"gossip.replies", d(s.t.gossip_replies), "count"});
  m.push_back({"gossip.recovered", d(s.via_gossip), "count"});
  m.push_back({"gossip.useful_reply_ratio",
               ratio(d(s.replies_useful), d(s.replies_received)), "ratio"});
  m.push_back({"gossip.nm_updates", d(s.t.nm_updates), "count"});
  m.push_back({"app.packets_sent", d(s.packets_sent), "count"});
  m.push_back({"app.latency_ms", 1e3 * ratio(s.latency_weighted_s, d(s.delivered)), "ms"});
  m.push_back({"faults.crashes", d(s.crashes), "count"});
  m.push_back({"faults.partitions", d(s.partitions), "count"});
  m.push_back({"faults.node_down_s", s.node_down_s, "s"});
  m.push_back({"dtn.stored", d(s.t.custody_stored), "count"});
  m.push_back({"dtn.offers", d(s.t.custody_offers), "count"});
  m.push_back({"dtn.accepted", d(s.t.custody_accepted), "count"});
  m.push_back({"dtn.duplicates", d(s.t.custody_duplicates), "count"});
  m.push_back({"dtn.evicted", d(s.evicted), "count"});
  m.push_back({"session.users_served", d(s.t.sessions.users_served), "count"});
  m.push_back({"session.users_eligible", d(s.t.sessions.user_eligible), "count"});
  m.push_back({"harness.result_s", plain.result_s, "s"});
  m.push_back({"harness.aggregate_s", plain.aggregate_s, "s"});
  m.push_back({"harness.cells", d(w.cells.size()), "count"});
  m.push_back({"trace.overhead_s", traced.run_s - plain.run_s, "s"});

  print_result(2 * w.cells.size(), failed, m, 2, errors, cell_errors);
  return 0;
}

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = arg_value(argc, argv, "--workload");
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  Workload w;
  if (workload == nullptr || !parse_u64(arg_value(argc, argv, "--seed"), seed) ||
      !parse_u64(arg_value(argc, argv, "--seconds"), seconds) ||
      !parse_u64(arg_value(argc, argv, "--trace"), trace) || trace > 1 ||
      !make_workload(workload, seed, w)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper40|scale1000|disrupted40> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return trace == 1 ? run_traced(w) : run_plain(w, static_cast<double>(seconds));
}
