// WorldState: the committed account-model state with MPT commitment.
//
// Mirrors geth's StateDB surface at the granularity BlockPilot needs:
// balance / nonce / storage / code access by StateKey, plus state_root()
// which assembles the secure account trie exactly per the yellow paper —
// each account RLP-encoded as [nonce, balance, storageRoot, codeHash] under
// the keccak of its address.  Root equality is the correctness criterion of
// the whole framework (§5.2).
//
// Commitment is *incremental*: every write records the touched account (and
// storage slot) in a dirty set, and state_root() re-encodes only dirty
// accounts into a persistent account trie that is kept alive across calls.
// Per-account storage tries and their roots are memoized the same way, so a
// block touching k accounts re-hashes O(k * depth) trie nodes instead of
// rebuilding the whole trie.  state_root_full_rebuild() preserves the
// original from-scratch computation as a differential oracle.
//
// Three sharing mechanisms keep copies cheap:
//  * the account map, every account's slot map and the per-account commit
//    memos are PersistentMaps, so a copy shares all of them and a write
//    clones only the table and the bucket it touches: copying a state is
//    O(fanout), and a block that writes k accounts makes its post state
//    own O(k) buckets while sharing the rest with its parent;
//  * commit_mu_ is a short-hold structural lock: state_root() folds dirty
//    entries under it but performs every hash on persistent-trie snapshots
//    *outside* it, so a finalize-time copy taken while a commit is in
//    flight never waits for hashing (root_mu_ serializes whole root
//    computations instead);
//  * each account carries a shared StorageSeed cell identifying its slot
//    map's content-version: the first lineage to commit a fresh account
//    builds the storage trie once and publishes it through the cell, and
//    every copy still holding the same cell adopts the persistent trie in
//    O(1) instead of re-seeding it from the whole map.
//
// Thread-safety matches the trie layer: concurrent const reads (including
// state_root() and copying) are safe; writes must not race with any other
// access to the same object.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "state/persistent_map.hpp"
#include "state/state_key.hpp"
#include "trie/mpt.hpp"
#include "types/address.hpp"
#include "types/u256.hpp"

namespace blockpilot::state {

using Bytes = std::vector<std::uint8_t>;

/// PersistentMap fanouts: ~2k accounts per genesis put one or two accounts
/// in a bucket; a 2k-slot token keeps ~16 slots per storage bucket while an
/// account with a handful of slots pays a 2 KiB table.
inline constexpr std::size_t kAccountFanout = 1024;
inline constexpr std::size_t kStorageFanout = 128;

/// One account's slot map.  Never holds a zero value: writing zero erases
/// the slot, so an account's storage is all-zero exactly when it is empty.
using StorageMap = PersistentMap<U256, U256, kStorageFanout>;

/// One-shot shared cell publishing a fresh account's storage commitment.
/// The cell's identity encodes a slot-map content-version: the write path
/// swaps in a new cell whenever the map changes (unless the old one is
/// still private and unfilled), so every WorldState holding the *same*
/// cell is guaranteed to hold the identical slot map.  The first committer
/// fills it; later committers adopt the persistent trie in O(1).
struct StorageSeed {
  std::mutex mu;                  // serializes the one-time fill
  std::atomic<bool> ready{false};
  trie::SecureTrie trie;          // immutable once ready
  Hash256 storage_root;
};

/// Block-level seed set: one StorageSeed cell per account touched by a
/// specific block.  Sibling validator replicas re-executing the *same* block
/// on the *same* parent state produce bit-identical post-block slot maps
/// (deterministic replay — the invariant consensus itself asserts), so the
/// first replica to commit publishes every dirty account's storage trie
/// through its cell and every later replica adopts the whole fold set in
/// O(1) per account instead of re-hashing it.  Unlike the per-account
/// lineage cells, these are keyed by content *by contract*: callers must
/// only share a set between states executing the identical block.
class BlockSeedSet {
 public:
  /// The cell for one account, created on first request.
  std::shared_ptr<StorageSeed> cell_for(const Address& addr);

  std::size_t size() const;

  /// Fold-set sharing counters (fed by WorldState::state_root()).
  std::atomic<std::uint64_t> seeds_built{0};
  std::atomic<std::uint64_t> seeds_adopted{0};

 private:
  mutable std::mutex mu_;
  std::unordered_map<Address, std::shared_ptr<StorageSeed>> cells_;
};

/// Registry of BlockSeedSets keyed by block hash, shared by every validator
/// replica of one simulated network (or one process).  for_block() is the
/// rendezvous: all replicas validating block B receive the same set.
class BlockSeedDirectory {
 public:
  std::shared_ptr<BlockSeedSet> for_block(const Hash256& block_hash);

  struct Stats {
    std::size_t blocks = 0;           // distinct blocks seen
    std::uint64_t seeds_built = 0;    // folds built + published
    std::uint64_t seeds_adopted = 0;  // folds served from a sibling replica
  };
  Stats stats() const;

  /// Drops every set (e.g. between simulation runs).
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<Hash256, std::shared_ptr<BlockSeedSet>> sets_;
};

/// Mutable per-account record.  An account is part of the state commitment
/// iff it is non-empty (nonzero nonce, balance, code, or storage) — empty
/// accounts are pruned from the trie like post-EIP-161 Ethereum.
struct AccountData {
  U256 balance;
  std::uint64_t nonce = 0;
  std::shared_ptr<const Bytes> code;  // nullptr for externally-owned accounts
  /// keccak(code), zero for code-less/empty accounts; computed once by
  /// set_code so executors can key the CodeAnalysis cache and state_root()
  /// can encode the account without hashing the code.
  Hash256 code_hash;
  StorageMap storage;
  /// Shared storage-trie seed (see StorageSeed); copies of this state share
  /// the cell until one of them writes storage again.
  std::shared_ptr<StorageSeed> storage_seed;

  bool empty_account() const noexcept {
    return balance.is_zero() && nonce == 0 &&
           (code == nullptr || code->empty()) && storage.empty();
  }
};

/// Counters for the incremental-commitment machinery (bench/test hooks).
struct CommitStats {
  std::uint64_t root_recomputes = 0;    // state_root() calls that re-hashed
  std::uint64_t root_memo_hits = 0;     // state_root() calls answered by memo
  std::uint64_t accounts_resynced = 0;  // full storage-trie (re)builds
  std::uint64_t slots_resynced = 0;     // individual dirty-slot updates
  std::uint64_t dirty_accounts = 0;     // dirty accounts folded in, cumulative
  std::uint64_t seeds_built = 0;        // storage seeds built + published
  std::uint64_t seeds_adopted = 0;      // fresh accounts served from a seed
};

class WorldState {
 public:
  WorldState() = default;
  WorldState(const WorldState& other);
  WorldState& operator=(const WorldState& other);
  WorldState(WorldState&& other) noexcept;
  WorldState& operator=(WorldState&& other) noexcept;

  /// Reads a balance/nonce/storage cell; absent keys read as zero (EVM
  /// semantics for untouched accounts and slots).
  U256 get(const StateKey& key) const;

  /// Writes a balance/nonce/storage cell.
  void set(const StateKey& key, const U256& value);

  /// Deployed bytecode for an address (nullptr when none).
  std::shared_ptr<const Bytes> code(const Address& addr) const;

  /// Installs contract bytecode (workload genesis / deployment) and
  /// memoizes its keccak hash.
  void set_code(const Address& addr, Bytes code);

  /// keccak of the deployed bytecode (memoized at set_code time); the zero
  /// hash when the address has no or empty code.
  Hash256 code_hash(const Address& addr) const;

  bool account_exists(const Address& addr) const {
    return accounts_.contains(addr);
  }

  std::size_t account_count() const noexcept { return accounts_.size(); }

  /// Yellow-paper world-state commitment: secure MPT over
  /// rlp([nonce, balance, storageRoot, codeHash]) per non-empty account.
  /// Incremental: folds the dirty set into the persistent account trie and
  /// re-hashes only touched paths; answered from a memo when nothing is
  /// dirty.  Bit-identical to state_root_full_rebuild() at all times.
  /// All hashing runs outside commit_mu_ (see the protocol in the .cpp), so
  /// concurrent copies only wait for the short structural folds.
  Hash256 state_root() const;

  /// From-scratch commitment rebuilding every trie — the original (seed)
  /// implementation, kept as the differential oracle for tests and benches.
  Hash256 state_root_full_rebuild() const;

  /// Storage-trie root for one account (used in account RLP and tests).
  /// Served from the per-account memo when that account's storage is clean.
  Hash256 storage_root(const Address& addr) const;

  /// Incremental-commitment counters (cumulative for this object's life;
  /// copies start from the source's counters).
  CommitStats commit_stats() const;

  /// Arms block-level fold sharing for the *next* state_root() computation:
  /// every dirty account's storage fold is adopted from `seeds` when a
  /// sibling replica already published it, and published through `seeds`
  /// otherwise.  One-shot — the set is dropped once that root completes.
  /// Caller contract: this state must be the post state of exactly the
  /// block `seeds` is keyed by (deterministic replay makes the slot maps
  /// bit-identical across replicas; sharing between different blocks would
  /// commit wrong roots).
  void adopt_block_seeds(std::shared_ptr<BlockSeedSet> seeds);

  /// Persists the current commitment into `store`: computes state_root()
  /// (folding any dirty writes), then writes every new node of the account
  /// trie and of each memoized storage trie.  Trie snapshots are taken
  /// under the short structural lock and persisted outside it, mirroring
  /// the state_root() hashing protocol.  Returns the number of nodes
  /// appended.  After store.commit_root(state_root(), h), a restarted
  /// process reconstructs this state's tries with trie::from_root.
  std::size_t persist_commitment(db::NodeStore& store) const;

 private:
  /// Memoized commitment pieces for one account.  `fresh` marks a memo that
  /// has never been built (storage trie must be seeded from the whole map,
  /// or adopted from the account's StorageSeed cell).
  struct AccountCommit {
    trie::SecureTrie storage_trie;
    Hash256 storage_root = trie::MerklePatriciaTrie::empty_root();
    bool fresh = true;
  };

  /// Per-account unit of work carried between state_root()'s locked
  /// structural phases and its unlocked hashing phase.
  struct StorageFold;

  AccountData& account(const Address& addr) { return accounts_[addr]; }

  /// Records a write for the incremental commitment.  An entry with an empty
  /// slot set means the account body (balance/nonce/code) changed but its
  /// storage did not.
  void mark_dirty_account(const Address& addr) { dirty_[addr]; }
  void mark_dirty_slot(const Address& addr, const U256& slot) {
    dirty_[addr].insert(slot);
  }

  // state_root() phases; see the protocol comment in the .cpp.
  std::vector<StorageFold> collect_folds_locked() const;
  void hash_folds_unlocked(std::vector<StorageFold>& folds) const;
  trie::SecureTrie install_folds_locked(std::vector<StorageFold>& folds) const;

  PersistentMap<Address, AccountData, kAccountFanout> accounts_;

  // Incremental commitment state.  Mutable so const root queries may run
  // concurrently (e.g. on the commit pool) while still updating the memos.
  // commit_mu_ guards the structures below with *short* structural holds;
  // root_mu_ serializes whole state_root() computations so their unlocked
  // hashing phases cannot interleave.  The dirty set is only ever grown by
  // non-const writes, which by contract never race with other access.
  mutable std::mutex root_mu_;
  mutable std::mutex commit_mu_;
  mutable trie::SecureTrie account_trie_;
  mutable PersistentMap<Address, AccountCommit, kAccountFanout> commit_;
  mutable std::unordered_map<Address, std::unordered_set<U256>> dirty_;
  mutable Hash256 root_memo_;
  mutable bool root_valid_ = false;
  mutable CommitStats stats_;
  /// One-shot block-level fold sharing (see adopt_block_seeds).  Not carried
  /// across copies: the copy is no longer the submitted post state.
  mutable std::shared_ptr<BlockSeedSet> block_seeds_;
};

}  // namespace blockpilot::state
