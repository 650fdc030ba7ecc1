// One run of a block's whole lifecycle over two simulated nodes.
//
// The proposer node admits each interval's arrivals (re-broadcasting what
// the pool evicted), proposes with the adaptive engine over 4 virtual
// workers, seals, and encodes block + profile to wire bytes.  The validator
// node then decodes each block, replays it with the Block-STM validator
// over 4 virtual workers, checks the root, settles it on its own ledger and
// persists it to a paged node store.  The nodes run back to back on the
// calling thread; the validator starts with an empty trie node cache and
// its own code-analysis cache, so no import number includes memoisation the
// proposer paid for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "trace.hpp"

namespace e2e {

/// Everything about a chain run that is a pure function of the inputs.
/// Two runs of the same inputs must produce equal Counts.
struct Counts {
  std::uint64_t blocks = 0;
  std::uint64_t accepted_blocks = 0;
  std::uint64_t committed_txs = 0;
  std::vector<std::uint32_t> block_txs;  // committed txs per block
  std::uint64_t aborts = 0;
  std::uint64_t not_ready = 0;
  std::uint64_t stm_blocks = 0;  // blocks the adaptive proposer ran on STM
  std::uint64_t adds = 0;        // TxPool::add calls, re-broadcasts included
  std::uint64_t evicted = 0;
  std::uint64_t replaced = 0;
  std::uint64_t suspensions = 0;  // validator Block-STM suspensions
  std::uint64_t wire_bytes = 0;
  std::uint64_t nodes_appended = 0;
  std::uint64_t store_bytes = 0;  // node-store file growth over the chain
  double proposer_vspeedup_sum = 0.0;  // over non-empty blocks
  double validator_vspeedup_sum = 0.0;
  std::uint64_t nonempty_blocks = 0;
  double largest_subgraph_sum = 0.0;
  /// Per committed slot: blocks from its last admission to the block that
  /// committed it (1 = the next block).
  std::vector<std::uint32_t> inclusion_blocks;
  std::vector<std::uint32_t> occupancy;         // pool size after propose
  std::uint64_t build_node_hits = 0, build_node_misses = 0;
  std::uint64_t import_node_hits = 0, import_node_misses = 0;
  std::uint64_t build_analysis_hits = 0, build_analysis_misses = 0;
  std::uint64_t import_analysis_hits = 0, import_analysis_misses = 0;
  std::string fingerprint;  // final root + digest of the block hashes

  friend bool operator==(const Counts&, const Counts&) = default;
};

struct ChainRun {
  Counts counts;
  // Per block, milliseconds.
  std::vector<double> build_ms;           // propose through sealed header
  std::vector<double> proposer_block_ms;  // admission + build + encode
  std::vector<double> import_ms;  // wire bytes in to settled and persisted
  // Node phase wall time; the validator's excludes the store's fsync
  // barrier (commit_root), which measures the device, not the program.
  double proposer_wall_ms = 0.0;
  double validator_wall_ms = 0.0;
  std::string error;  // first failed check; empty when every check held
};

/// Drives both nodes over `in`.  `db_dir` must be an empty directory for
/// the validator's node store.  With a tracer, every layer call records a
/// span, and seal and root check run through commit pipelines so that
/// awaiting them is a span of its own.  `full_rebuild_check` also compares
/// the final incremental root with a from-scratch rebuild.
ChainRun run_chain(const Inputs& in, const std::string& db_dir,
                   Tracer* tracer, bool full_rebuild_check);

}  // namespace e2e
