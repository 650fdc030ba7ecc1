// Two-node block-lifecycle benchmark.
//
//   e2ebench --workload mainnet|feewar|compute --seed N --seconds S
//            --trace 0|1 [--trace-out FILE] [--db-root DIR]
//   e2ebench --selftest [--db-root DIR]
//
// Builds the workload's inputs from the seed (again before every fourth chain
// run, timing each build as set-up), runs one warm-up chain, then runs the
// whole chain again and again until S seconds have passed.  Every chain run is
// checked (see lifecycle.hpp) and must reproduce the first one's counts
// exactly.  With --trace 0 the last stdout line is a JSON object with the
// end-to-end metrics; with --trace 1 untraced and traced chain runs alternate,
// the line carries the per-layer metrics, and the last traced run's spans are
// written to --trace-out as Chrome trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "lifecycle.hpp"
#include "scratch_dir.hpp"
#include "selftest.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

constexpr std::size_t kMinUntraced = 3;
constexpr std::size_t kMinTraced = 2;
constexpr double kHardStopS = 150.0;  // stay well inside the 180 s limit
constexpr double kMaxOtherShare = 0.05;
// Leading blocks of every chain run that the end-to-end times leave out:
// each run starts both nodes cold (empty caches, a pool still filling), a
// cost a running node does not pay per block.
constexpr std::size_t kWarmupBlocks = 4;
// The inputs are rebuilt (and timed as set-up) before every this many chain
// runs: enough samples for a median, without spending the run on set-up.
constexpr std::size_t kSetupEvery = 4;

struct Args {
  Workload workload = Workload::kMainnet;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string trace_out = "e2ebench-trace.json";
  std::string db_root = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      if (!parse_workload(v, a.workload)) return false;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
      if (!(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--db-root") {
      a.db_root = v;
    } else {
      return false;
    }
  }
  return true;
}

/// Linear interpolation between order statistics.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

template <class T>
std::vector<double> as_doubles(const std::vector<T>& v) {
  return {v.begin(), v.end()};
}

template <class N, class D>
double ratio(N num, D den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int fail(const std::string& why) {
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  return 2;
}

/// Per block after the warm-up blocks, the fastest of the chain runs.
/// Every run executes identical blocks, and interference from other work on
/// the host only ever adds time, so the minimum is the block's own cost.
std::vector<double> fastest(const std::vector<ChainRun>& runs,
                            std::vector<double> ChainRun::*per_block) {
  const std::vector<double>& first = runs.front().*per_block;
  std::vector<double> best(
      first.begin() + std::min(kWarmupBlocks, first.size()), first.end());
  for (const ChainRun& r : runs)
    for (std::size_t b = 0; b < best.size(); ++b)
      best[b] = std::min(best[b], (r.*per_block)[b + kWarmupBlocks]);
  return best;
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

std::vector<Metric> end_to_end(const Inputs& in, const Counts& c,
                               const std::vector<ChainRun>& runs,
                               double setup_s) {
  const std::vector<double> build = fastest(runs, &ChainRun::build_ms);
  const std::vector<double> import = fastest(runs, &ChainRun::import_ms);
  const double proposer_ms = sum(fastest(runs, &ChainRun::proposer_block_ms));
  double txs = 0.0;
  for (std::size_t b = kWarmupBlocks; b < c.block_txs.size(); ++b)
    txs += c.block_txs[b];
  const std::uint64_t nonempty = c.nonempty_blocks;
  const std::vector<double> incl = as_doubles(c.inclusion_blocks);
  return {
      {"proposer_tx_per_s", ratio(txs * 1e3, proposer_ms), "1/s"},
      {"build_ms_p50", percentile(build, 0.5), "ms"},
      {"build_ms_p95", percentile(build, 0.95), "ms"},
      {"import_tx_per_s", ratio(txs * 1e3, sum(import)), "1/s"},
      {"import_ms_p50", percentile(import, 0.5), "ms"},
      {"import_ms_p95", percentile(import, 0.95), "ms"},
      {"proposer_vspeedup", ratio(c.proposer_vspeedup_sum, nonempty), "x"},
      {"validator_vspeedup", ratio(c.validator_vspeedup_sum, nonempty), "x"},
      {"inclusion_blocks_p50", percentile(incl, 0.5), "blocks"},
      {"inclusion_blocks_p95", percentile(incl, 0.95), "blocks"},
      {"block_accept_share", ratio(c.accepted_blocks, c.blocks), "share"},
      {"tx_commit_share", ratio(c.committed_txs, in.offered_slots), "share"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Counts& c,
                              const std::vector<ChainRun>& untraced,
                              const std::vector<ChainRun>& traced,
                              const std::vector<Tracer>& tracers,
                              std::string& error) {
  auto pooled = [&](const char* span) {
    std::vector<double> all;
    for (const Tracer& t : tracers) {
      const std::vector<double> d = t.durations_ms(span);
      all.insert(all.end(), d.begin(), d.end());
    }
    return all;
  };
  auto span_total_ms = [&](const char* span, Node node) {
    double total = 0.0;
    for (const Tracer& t : tracers)
      total += static_cast<double>(t.total_ns(span, node)) * 1e-6;
    return total;
  };
  double prop_wall = 0.0, val_wall = 0.0;
  for (const ChainRun& r : traced) {
    prop_wall += r.proposer_wall_ms;
    val_wall += r.validator_wall_ms;
  }
  auto node_ms = [](const std::vector<ChainRun>& runs) {
    std::vector<double> v;
    for (const ChainRun& r : runs)
      v.push_back(sum(r.proposer_block_ms) + sum(r.import_ms));
    return median(v);
  };

  auto span_p = [&](const char* span, double p) {
    return percentile(pooled(span), p);
  };
  auto per_block = [&](double count) { return ratio(count, c.blocks); };
  const std::vector<double> adds = pooled("txpool.add");

  std::vector<Metric> m = {
      {"txpool.add_us", ratio(sum(adds) * 1e3, adds.size()), "us"},
      {"txpool.adds_per_block", per_block(c.adds), "count"},
      {"txpool.evicted_per_block", per_block(c.evicted), "count"},
      {"txpool.replaced_per_block", per_block(c.replaced), "count"},
      {"txpool.occupancy_p95", percentile(as_doubles(c.occupancy), 0.95),
       "count"},
      {"propose.exec_ms_p50", span_p("core.propose", 0.5), "ms"},
      {"propose.useful_share",
       ratio(c.committed_txs, c.committed_txs + c.aborts), "share"},
      {"propose.not_ready_per_block", per_block(c.not_ready), "count"},
      {"propose.stm_block_share", per_block(c.stm_blocks), "share"},
      {"commit.seal_ms_p50", span_p("commit.await_seal", 0.5), "ms"},
      {"commit.seal_ms_p95", span_p("commit.await_seal", 0.95), "ms"},
      {"trie.hash_hit_share.build",
       ratio(c.build_node_hits, c.build_node_hits + c.build_node_misses),
       "share"},
      {"trie.hash_hit_share.import",
       ratio(c.import_node_hits, c.import_node_hits + c.import_node_misses),
       "share"},
      {"chain.encode_ms_p50", span_p("chain.encode", 0.5), "ms"},
      {"chain.decode_ms_p50", span_p("chain.decode", 0.5), "ms"},
      {"chain.wire_kib_per_block", per_block(c.wire_bytes / 1024.0), "KiB"},
      {"chain.settle_ms_p50", span_p("chain.commit_block", 0.5), "ms"},
      {"validate.exec_ms_p50", span_p("core.validate", 0.5), "ms"},
      {"validate.root_ms_p50", span_p("core.await_commit", 0.5), "ms"},
      {"validate.stm_suspensions_per_block", per_block(c.suspensions),
       "count"},
      {"validate.largest_subgraph_ratio", per_block(c.largest_subgraph_sum),
       "share"},
      {"evm.analysis_hit_share.build",
       ratio(c.build_analysis_hits,
             c.build_analysis_hits + c.build_analysis_misses),
       "share"},
      {"evm.analysis_hit_share.import",
       ratio(c.import_analysis_hits,
             c.import_analysis_hits + c.import_analysis_misses),
       "share"},
      {"db.persist_ms_p50", span_p("db.persist_commitment", 0.5), "ms"},
      {"db.sync_ms_p50", span_p("db.commit_root", 0.5), "ms"},
      {"db.kib_appended_per_block", per_block(c.store_bytes / 1024.0), "KiB"},
      {"db.nodes_per_block", per_block(c.nodes_appended), "count"},
  };

  // Shares of each node's traced phase wall time.
  const std::pair<const char*, const char*> build_layers[] = {
      {"admit", "build.admit"},
      {"propose", "core.propose"},
      {"seal", "commit.await_seal"},
      {"encode", "chain.encode"}};
  const std::pair<const char*, const char*> import_layers[] = {
      {"decode", "chain.decode"},
      {"validate", "core.validate"},
      {"root", "core.await_commit"},
      {"settle", "chain.commit_block"},
      {"persist", "db.persist_commitment"}};
  double covered = 0.0;
  for (const auto& [layer, span] : build_layers) {
    const double s = ratio(span_total_ms(span, Node::kProposer), prop_wall);
    covered += s;
    m.push_back({std::string("share.build.") + layer, s, "share"});
  }
  m.push_back({"share.build.other", 1.0 - covered, "share"});
  if (1.0 - covered > kMaxOtherShare)
    error = "proposer layer spans cover only " +
            std::to_string(covered * 100.0) + " % of node time";
  covered = 0.0;
  for (const auto& [layer, span] : import_layers) {
    const double s = ratio(span_total_ms(span, Node::kValidator), val_wall);
    covered += s;
    m.push_back({std::string("share.import.") + layer, s, "share"});
  }
  m.push_back({"share.import.other", 1.0 - covered, "share"});
  if (1.0 - covered > kMaxOtherShare)
    error = "validator layer spans cover only " +
            std::to_string(covered * 100.0) + " % of node time";
  m.push_back({"trace.overhead_share",
               ratio(node_ms(traced), node_ms(untraced)) - 1.0, "share"});
  return m;
}

void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const std::uint64_t start = now_ns();

  // Set-up: build the seeded inputs.  They are rebuilt before every
  // kSetupEvery-th chain run, so the set-up samples spread over the whole
  // run, and every rebuild must be byte-identical to the first.
  std::vector<double> setup_s;
  Inputs in;
  const auto set_up = [&] {
    const std::uint64_t t = now_ns();
    Inputs next = make_inputs(args.workload, args.seed);
    setup_s.push_back(seconds_since(t));
    const bool same = setup_s.size() == 1 || next.digest == in.digest;
    in = std::move(next);
    return same;
  };
  set_up();

  const ScratchDir db(args.db_root);
  std::printf("e2ebench workload=%s seed=%llu blocks=%zu trace=%d\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), in.arrivals.size(),
              args.trace ? 1 : 0);
  std::printf("inputs: digest %s, %zu offered slots, %zu senders\n",
              in.digest.to_hex().substr(0, 18).c_str(), in.offered_slots,
              in.senders.size());
  std::printf("db: fresh temporary node-store directory %s per chain run, "
              "removed at exit; the fsync barrier (commit_root) is timed as "
              "db.sync_ms and kept out of import time\n",
              db.path().c_str());

  // Warm-up chain: not timed, but fully checked (incl. a full root rebuild).
  std::size_t run_id = 0;
  if (!set_up()) return fail("the same seed generated different inputs");
  ChainRun first = run_chain(in, db.fresh(run_id), nullptr, true);
  db.drop(run_id++);
  if (!first.error.empty()) return fail(first.error);
  const Counts& counts = first.counts;

  std::vector<ChainRun> untraced, traced;
  std::vector<Tracer> tracers;
  for (;;) {
    const double elapsed = seconds_since(start);
    const bool enough = untraced.size() >= kMinUntraced &&
                        (!args.trace || traced.size() >= kMinTraced);
    if (elapsed > kHardStopS || (enough && elapsed >= args.seconds)) break;
    const bool trace_this = args.trace && untraced.size() > traced.size();
    if (run_id % kSetupEvery == 0 && !set_up())
      return fail("the same seed generated different inputs");
    Tracer tracer;
    ChainRun r = run_chain(in, db.fresh(run_id), trace_this ? &tracer : nullptr,
                           false);
    db.drop(run_id++);
    if (!r.error.empty()) return fail(r.error);
    if (!(r.counts == counts))
      return fail("a chain run did not reproduce the first run's counts");
    if (trace_this) {
      traced.push_back(std::move(r));
      tracers.push_back(std::move(tracer));
    } else {
      untraced.push_back(std::move(r));
    }
  }
  std::printf("chain runs: %zu untraced + %zu traced (+1 warm-up), %.1f s\n",
              untraced.size(), traced.size(), seconds_since(start));
  std::printf("fingerprint: %s\n", counts.fingerprint.c_str());

  const std::size_t runs = untraced.size() + traced.size();
  const std::size_t attempted = counts.blocks * runs;
  const std::size_t failed = attempted - counts.accepted_blocks * runs;
  if (!args.trace) {
    print_result(end_to_end(in, counts, untraced, median(setup_s)), attempted,
                 failed);
    return 0;
  }
  if (!tracers.back().write_chrome_json(args.trace_out))
    return fail("cannot write " + args.trace_out);
  std::printf("trace: %zu spans of the last traced chain run in %s "
              "(proposer %.1f ms, validator %.1f ms)\n",
              tracers.back().spans().size(), args.trace_out.c_str(),
              traced.back().proposer_wall_ms, traced.back().validator_wall_ms);
  for (const auto& [name, ms] : tracers.back().self_ms_by_name())
    std::printf("  self %-28s %12.3f ms\n", name.c_str(), ms);
  std::string error;
  const std::vector<Metric> layers =
      per_layer(counts, untraced, traced, tracers, error);
  if (!error.empty()) return fail(error);
  print_result(layers, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload mainnet|feewar|compute --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] [--db-root DIR]\n"
                 "       e2ebench --selftest [--db-root DIR]\n");
    return 64;
  }
  if (args.selftest) return e2e::run_selftests(args.db_root);
  return e2e::run(args);
}
