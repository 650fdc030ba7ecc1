#include "lifecycle.hpp"

#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "chain/blockchain.hpp"
#include "chain/codec.hpp"
#include "commit/commit_pipeline.hpp"
#include "core/proposer.hpp"
#include "core/validator.hpp"
#include "crypto/keccak.hpp"
#include "db/paged_node_store.hpp"
#include "evm/code_analysis.hpp"
#include "slot.hpp"
#include "support/thread_pool.hpp"
#include "trie/node_cache.hpp"

namespace e2e {
namespace {

using bp::Hash256;
using bp::chain::Transaction;
namespace chain = bp::chain;
namespace core = bp::core;

constexpr std::size_t kVirtualWorkers = 4;
constexpr std::uint64_t kCoinbaseId = 0xC0FFEE;
constexpr std::uint64_t kTimestampBase = 1'700'000'000;

std::string fingerprint_of(const Hash256& root,
                           const std::vector<Hash256>& block_hashes) {
  bp::crypto::Keccak256 h;
  h.update(root.bytes);
  for (const Hash256& b : block_hashes) h.update(b.bytes);
  return root.to_hex().substr(0, 18) + "/" +
         Hash256{h.finalize()}.to_hex().substr(0, 18);
}

/// Traced runs only: parks the sealer thread until the main thread awaits
/// a seal or root check, so that work never overlaps the main thread's own
/// (the engines keep tearing down their execution state after submitting
/// it).  Each await span then holds exactly the commitment work, and the
/// node's shares stay additive.
class SealGate {
 public:
  explicit SealGate(bp::ThreadPool& sealer) : sealer_(sealer) {}
  ~SealGate() { open(); }
  SealGate(const SealGate&) = delete;
  SealGate& operator=(const SealGate&) = delete;

  /// Blocks the sealer behind a gate task; work submitted next queues.
  void close() {
    open();
    promise_ = std::promise<void>();
    sealer_.submit([gate = promise_.get_future().share()] { gate.wait(); });
    closed_ = true;
  }
  void open() {
    if (!closed_) return;
    promise_.set_value();
    closed_ = false;
  }

 private:
  bp::ThreadPool& sealer_;
  std::promise<void> promise_;
  bool closed_ = false;
};

void reset_node_cache() {
  bp::trie::NodeCache::global().clear();
  bp::trie::NodeCache::global().reset_stats();
}

// ---- proposer node ----

void run_proposer(const Inputs& in, Tracer* tracer, bp::ThreadPool& idle,
                  bp::commit::CommitPipeline* seal_pipeline, SealGate* gate,
                  ChainRun& out,
                  std::vector<Bytes>& wire,
                  std::vector<Hash256>& roots) {
  Counts& c = out.counts;
  reset_node_cache();
  bp::evm::CodeAnalysisCache analysis;
  core::ProposerConfig pc;
  pc.threads = kVirtualWorkers;
  pc.mode = core::ScheduleMode::kAdaptive;
  pc.max_txs = in.max_txs_per_block;
  pc.analysis_cache = &analysis;
  pc.commit_pipeline = seal_pipeline;  // null: seal inline in propose()
  core::BlockProposer proposer(pc);

  bp::txpool::TxPool pool(in.pool);
  for (const bp::Address& s : in.senders) pool.note_sender_nonce(s, 0);
  const chain::Blockchain genesis(*in.genesis);
  std::shared_ptr<const bp::state::WorldState> tip = genesis.head_state();
  // Post states stay alive until the phase ends, as on the validator's
  // ledger: freeing them is no layer's call and would go untimed.
  std::vector<std::shared_ptr<const bp::state::WorldState>> states;
  Hash256 parent = genesis.genesis_hash();
  Hash256 root = genesis.head().header.state_root;
  std::vector<Hash256> hashes;

  // Clients re-broadcast what the pool evicted, as NodeDriver models them:
  // a re-send the full pool turns away stays queued for the next interval.
  std::deque<Transaction> backlog;
  // Height whose admission last let the slot in; a replacement or a
  // re-broadcast restarts it, as NodeDriver's admit-to-settle clock does.
  std::unordered_map<Slot, std::uint32_t, SlotHash> admitted_at;
  std::unordered_set<Slot, SlotHash> committed;

  const std::uint64_t phase_start = now_ns();
  for (std::size_t b = 0; b < in.arrivals.size(); ++b) {
    const auto height = static_cast<std::uint32_t>(b + 1);

    Probe admit(tracer, "build.admit", Node::kProposer, height);
    auto add = [&](Transaction tx) {
      const Slot slot{tx.from, tx.nonce};
      bp::txpool::AdmissionResult res;
      if (tracer != nullptr) {
        Probe p(tracer, "txpool.add", Node::kProposer, height);
        res = pool.add(std::move(tx));
        p.stop();
      } else {
        res = pool.add(std::move(tx));
      }
      ++c.adds;
      if (res.admitted()) admitted_at.insert_or_assign(slot, height);
      return res;
    };
    {
      Probe p(tracer, "txpool.progress", Node::kProposer, height);
      pool.progress();
      p.stop();
    }
    {
      Probe p(tracer, "txpool.take_evicted", Node::kProposer, height);
      std::vector<Transaction> evicted = pool.take_evicted();
      p.stop();
      for (Transaction& tx : evicted) backlog.push_back(std::move(tx));
    }
    for (std::size_t n = backlog.size(); n > 0; --n) {
      Transaction tx = std::move(backlog.front());
      backlog.pop_front();
      if (add(tx).outcome == bp::txpool::AdmissionOutcome::kRejectedPoolFull)
        backlog.push_back(std::move(tx));
    }
    for (const Transaction& tx : in.arrivals[b]) add(tx);
    double node_ms = admit.stop();

    bp::evm::BlockContext ctx;
    ctx.number = height;
    ctx.timestamp = kTimestampBase + height * 12;
    ctx.coinbase = bp::Address::from_id(kCoinbaseId);
    ctx.gas_limit = pc.block_gas_limit;
    if (gate != nullptr) gate->close();
    Probe propose(tracer, "core.propose", Node::kProposer, height);
    core::ProposedBlock blk = proposer.propose(*tip, ctx, pool, idle);
    double build = propose.stop();
    if (gate != nullptr) {
      // Opening the gate sits inside the span: the woken sealer may take
      // over this CPU at once.
      Probe seal(tracer, "commit.await_seal", Node::kProposer, height);
      gate->open();
      blk.await_seal();
      build += seal.stop();
    }
    out.build_ms.push_back(build);
    node_ms += build;

    blk.block.header.parent_hash = parent;
    parent = blk.block.header.hash();
    root = blk.block.header.state_root;
    hashes.push_back(parent);
    roots.push_back(root);
    const core::ProposerStats& st = blk.stats;
    c.aborts += st.aborts;
    c.not_ready += st.not_ready;
    if (st.engine_used == core::ScheduleMode::kBlockStm) ++c.stm_blocks;
    if (!blk.block.transactions.empty()) {
      ++c.nonempty_blocks;
      c.proposer_vspeedup_sum += st.virtual_speedup();
    }
    for (const Transaction& tx : blk.block.transactions) {
      const Slot slot{tx.from, tx.nonce};
      if (!committed.insert(slot).second) {
        out.error = "slot " + tx.from.to_hex() + "/" +
                    std::to_string(tx.nonce) + " committed twice";
        return;
      }
      const auto it = admitted_at.find(slot);
      if (it == admitted_at.end()) {
        out.error = "committed a slot that was never admitted";
        return;
      }
      c.inclusion_blocks.push_back(height - it->second + 1);
    }
    c.committed_txs += blk.block.transactions.size();
    c.block_txs.push_back(
        static_cast<std::uint32_t>(blk.block.transactions.size()));
    c.occupancy.push_back(static_cast<std::uint32_t>(pool.size()));
    if (!pool.stats().conserved()) {
      out.error = "TxPoolStats::conserved() failed at block " +
                  std::to_string(height);
      return;
    }
    tip = blk.post_state;
    states.push_back(tip);

    Probe encode(tracer, "chain.encode", Node::kProposer, height);
    wire.push_back(chain::encode_announcement(chain::BlockAnnouncement{
        std::move(blk.block), std::move(blk.profile)}));
    node_ms += encode.stop();
    out.proposer_block_ms.push_back(node_ms);
    c.wire_bytes += wire.back().size();
  }
  out.proposer_wall_ms = static_cast<double>(now_ns() - phase_start) * 1e-6;

  const bp::txpool::TxPoolStats ps = pool.stats();
  c.evicted = ps.evicted;
  c.replaced = ps.replaced;
  const auto nc = bp::trie::NodeCache::global().stats();
  c.build_node_hits = nc.hits;
  c.build_node_misses = nc.misses;
  const auto as = analysis.stats();
  c.build_analysis_hits = as.hits;
  c.build_analysis_misses = as.misses;
  c.fingerprint = fingerprint_of(root, hashes);
}

// ---- validator node ----

void run_validator(const Inputs& in, Tracer* tracer, bp::ThreadPool& idle,
                   bp::commit::CommitPipeline* root_pipeline, SealGate* gate,
                   const std::string& db_dir, bool full_rebuild_check,
                   const std::vector<Bytes>& wire,
                   const std::vector<Hash256>& proposer_roots, ChainRun& out) {
  Counts& c = out.counts;
  chain::Blockchain ledger(*in.genesis);
  std::unique_ptr<bp::db::PagedNodeStore> store;
  bp::db::Status st =
      bp::db::PagedNodeStore::open(db_dir, bp::db::PagedNodeStore::Options{},
                                   store);
  if (!st.ok()) {
    out.error = "node store open failed: " + st.message;
    return;
  }
  // Genesis is durable before the first block, so each block persists
  // only the nodes it created.
  (void)ledger.head_state()->persist_commitment(*store);
  st = store->commit_root(ledger.head().header.state_root, 0);
  if (!st.ok()) {
    out.error = "genesis commit_root failed: " + st.message;
    return;
  }
  const std::uint64_t store_bytes_start = store->stats().file_bytes;

  // Node isolation: nothing the proposer hashed or analysed is visible.
  reset_node_cache();
  bp::evm::CodeAnalysisCache analysis;
  {
    const auto nc = bp::trie::NodeCache::global().stats();
    const auto as = analysis.stats();
    if (nc.entries != 0 || nc.hits != 0 || nc.misses != 0 || as.entries != 0 ||
        as.hits != 0) {
      out.error = "validator phase did not start with empty caches";
      return;
    }
  }
  core::ValidatorConfig vc;
  vc.threads = kVirtualWorkers;
  vc.engine = core::ValidatorEngine::kBlockStm;
  vc.analysis_cache = &analysis;
  vc.commit_pipeline = root_pipeline;  // null: root checked inline
  core::BlockValidator validator(vc);

  double sync_ms = 0.0;
  const std::uint64_t phase_start = now_ns();
  for (std::size_t b = 0; b < wire.size(); ++b) {
    const auto height = static_cast<std::uint32_t>(b + 1);
    ++c.blocks;

    Probe decode(tracer, "chain.decode", Node::kValidator, height);
    chain::BlockAnnouncement ann = chain::decode_announcement(wire[b]);
    double import = decode.stop();

    if (ann.block.header.parent_hash != ledger.head().header.hash()) {
      out.error = "block " + std::to_string(height) + " has an unknown parent";
      return;
    }
    const std::shared_ptr<const bp::state::WorldState> pre =
        ledger.head_state();
    if (gate != nullptr) gate->close();
    Probe validate(tracer, "core.validate", Node::kValidator, height);
    core::ValidationOutcome vo =
        validator.validate(*pre, ann.block, ann.profile, idle);
    import += validate.stop();
    if (gate != nullptr) {
      Probe root(tracer, "core.await_commit", Node::kValidator, height);
      gate->open();
      vo.await_commit();
      import += root.stop();
    }
    if (!vo.valid) {
      out.error = "block " + std::to_string(height) +
                  " rejected: " + vo.reject_reason;
      return;
    }
    if (vo.exec.state_root != proposer_roots[b]) {
      out.error = "validator root differs from the proposer's header at "
                  "block " + std::to_string(height);
      return;
    }
    ++c.accepted_blocks;
    if (!ann.block.transactions.empty())
      c.validator_vspeedup_sum += vo.stats.virtual_speedup();
    c.suspensions += vo.stats.stm_suspensions;
    c.largest_subgraph_sum += vo.stats.largest_subgraph_ratio;
    const std::shared_ptr<const bp::state::WorldState> post =
        vo.exec.post_state;
    const Hash256 root = vo.exec.state_root;

    Probe settle(tracer, "chain.commit_block", Node::kValidator, height);
    ledger.commit_block(std::move(ann.block), post,
                        std::move(vo.exec.receipts));
    import += settle.stop();

    Probe persist(tracer, "db.persist_commitment", Node::kValidator, height);
    c.nodes_appended += post->persist_commitment(*store);
    import += persist.stop();
    out.import_ms.push_back(import);

    Probe sync(tracer, "db.commit_root", Node::kValidator, height);
    st = store->commit_root(root, height);
    sync_ms += sync.stop();
    if (!st.ok()) {
      out.error = "commit_root failed: " + st.message;
      return;
    }
  }
  out.validator_wall_ms =
      static_cast<double>(now_ns() - phase_start) * 1e-6 - sync_ms;

  c.store_bytes = store->stats().file_bytes - store_bytes_start;
  const auto nc = bp::trie::NodeCache::global().stats();
  c.import_node_hits = nc.hits;
  c.import_node_misses = nc.misses;
  const auto as = analysis.stats();
  c.import_analysis_hits = as.hits;
  c.import_analysis_misses = as.misses;

  std::vector<Hash256> hashes;
  for (std::uint64_t h = 1; h <= ledger.height(); ++h)
    hashes.push_back(ledger.canonical_block_at(h)->header.hash());
  const Hash256 head_root = ledger.head().header.state_root;
  const std::string fp = fingerprint_of(head_root, hashes);
  if (fp != c.fingerprint) {
    out.error = "chain fingerprints differ: proposer " + c.fingerprint +
                ", validator " + fp;
    return;
  }
  if (full_rebuild_check &&
      ledger.head_state()->state_root_full_rebuild() != head_root) {
    out.error = "final incremental root differs from a full rebuild";
  }
}

}  // namespace

ChainRun run_chain(const Inputs& in, const std::string& db_dir,
                   Tracer* tracer, bool full_rebuild_check) {
  ChainRun out;
  // The virtual-time engines take a pool by reference but never submit to
  // it; tasks_executed() below proves no timed work left this thread.
  bp::ThreadPool idle(1);
  // Traced runs only: seal and root check go through commit pipelines so
  // that awaiting each one is its own span.
  // Declared in teardown order: the gate opens before the pipelines drain,
  // and they drain before the sealer thread joins.
  std::optional<bp::ThreadPool> sealer;
  std::optional<bp::commit::CommitPipeline> seal_pipeline, root_pipeline;
  std::optional<SealGate> gate;
  if (tracer != nullptr) {
    sealer.emplace(1);
    seal_pipeline.emplace(&*sealer);
    root_pipeline.emplace(&*sealer);
    gate.emplace(*sealer);
  }

  std::vector<Bytes> wire;
  std::vector<Hash256> roots;
  wire.reserve(in.arrivals.size());
  roots.reserve(in.arrivals.size());
  SealGate* g = gate ? &*gate : nullptr;
  run_proposer(in, tracer, idle, seal_pipeline ? &*seal_pipeline : nullptr, g,
               out, wire, roots);
  if (out.error.empty()) {
    run_validator(in, tracer, idle, root_pipeline ? &*root_pipeline : nullptr,
                  g, db_dir, full_rebuild_check, wire, roots, out);
  }
  if (out.error.empty() && idle.tasks_executed() != 0)
    out.error = "a timed call ran on a pool worker";
  return out;
}

}  // namespace e2e
