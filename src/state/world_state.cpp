#include "state/world_state.hpp"

#include "crypto/keccak.hpp"
#include "db/node_store.hpp"
#include "rlp/rlp.hpp"
#include "support/assert.hpp"

namespace blockpilot::state {

std::shared_ptr<StorageSeed> BlockSeedSet::cell_for(const Address& addr) {
  std::scoped_lock lk(mu_);
  auto& cell = cells_[addr];
  if (cell == nullptr) cell = std::make_shared<StorageSeed>();
  return cell;
}

std::size_t BlockSeedSet::size() const {
  std::scoped_lock lk(mu_);
  return cells_.size();
}

std::shared_ptr<BlockSeedSet> BlockSeedDirectory::for_block(
    const Hash256& block_hash) {
  std::scoped_lock lk(mu_);
  auto& set = sets_[block_hash];
  if (set == nullptr) set = std::make_shared<BlockSeedSet>();
  return set;
}

BlockSeedDirectory::Stats BlockSeedDirectory::stats() const {
  std::scoped_lock lk(mu_);
  Stats s;
  s.blocks = sets_.size();
  for (const auto& [hash, set] : sets_) {
    s.seeds_built += set->seeds_built.load(std::memory_order_relaxed);
    s.seeds_adopted += set->seeds_adopted.load(std::memory_order_relaxed);
  }
  return s;
}

void BlockSeedDirectory::clear() {
  std::scoped_lock lk(mu_);
  sets_.clear();
}

std::string StateKey::to_string() const {
  switch (field) {
    case Field::kBalance:
      return addr.to_hex() + "/balance";
    case Field::kNonce:
      return addr.to_hex() + "/nonce";
    case Field::kStorage:
      return addr.to_hex() + "/slot:" + slot.to_hex();
  }
  return "?";
}

// Copying shares the persistent maps and tries (O(1) each) and carries the
// memos over, so a copied state answers state_root() without re-hashing
// anything the source had already committed; only a pending dirty set is
// copied entry by entry.  accounts_ is copied outside the commit mutex — it
// is never mutated concurrently (writes don't race by contract) — and the
// lock-guarded commitment structures are pointer copies, so a copy taken
// while a commit is in flight waits only for that commit's short structural
// fold, never for its hashing.
WorldState::WorldState(const WorldState& other) {
  accounts_ = other.accounts_;
  std::scoped_lock lk(other.commit_mu_);
  account_trie_ = other.account_trie_;
  commit_ = other.commit_;
  dirty_ = other.dirty_;
  root_memo_ = other.root_memo_;
  root_valid_ = other.root_valid_;
  stats_ = other.stats_;
}

WorldState& WorldState::operator=(const WorldState& other) {
  if (this == &other) return *this;
  accounts_ = other.accounts_;
  std::scoped_lock lk(commit_mu_, other.commit_mu_);
  account_trie_ = other.account_trie_;
  commit_ = other.commit_;
  dirty_ = other.dirty_;
  root_memo_ = other.root_memo_;
  root_valid_ = other.root_valid_;
  stats_ = other.stats_;
  return *this;
}

// Moving is a mutation of the source, which by contract cannot race with
// any other access — no locking needed.
WorldState::WorldState(WorldState&& other) noexcept
    : accounts_(std::move(other.accounts_)),
      account_trie_(std::move(other.account_trie_)),
      commit_(std::move(other.commit_)),
      dirty_(std::move(other.dirty_)),
      root_memo_(other.root_memo_),
      root_valid_(other.root_valid_),
      stats_(other.stats_) {
  other.root_valid_ = false;
}

WorldState& WorldState::operator=(WorldState&& other) noexcept {
  if (this == &other) return *this;
  accounts_ = std::move(other.accounts_);
  account_trie_ = std::move(other.account_trie_);
  commit_ = std::move(other.commit_);
  dirty_ = std::move(other.dirty_);
  root_memo_ = other.root_memo_;
  root_valid_ = other.root_valid_;
  stats_ = other.stats_;
  other.root_valid_ = false;
  return *this;
}

U256 WorldState::get(const StateKey& key) const {
  const AccountData* acct = accounts_.find(key.addr);
  if (acct == nullptr) return U256{};
  switch (key.field) {
    case Field::kBalance:
      return acct->balance;
    case Field::kNonce:
      return U256{acct->nonce};
    case Field::kStorage: {
      const U256* value = acct->storage.find(key.slot);
      return value == nullptr ? U256{} : *value;
    }
  }
  return U256{};
}

// A storage write changes the slot map's content-version, so the account
// must leave any seed cell that copies may still share or that was already
// filled.  A still-private, unfilled cell has never been observed by anyone
// else and can absorb consecutive writes from this lineage.
static void refresh_storage_seed(AccountData& acct) {
  auto& cell = acct.storage_seed;
  if (cell != nullptr && cell.use_count() == 1 &&
      !cell->ready.load(std::memory_order_relaxed))
    return;
  cell = std::make_shared<StorageSeed>();
}

void WorldState::set(const StateKey& key, const U256& value) {
  AccountData& acct = account(key.addr);
  switch (key.field) {
    case Field::kBalance:
      acct.balance = value;
      mark_dirty_account(key.addr);
      break;
    case Field::kNonce:
      BP_ASSERT_MSG(value.fits64(), "nonce overflow");
      acct.nonce = value.low64();
      mark_dirty_account(key.addr);
      break;
    case Field::kStorage:
      if (value.is_zero())
        acct.storage.erase(key.slot);
      else
        acct.storage[key.slot] = value;
      refresh_storage_seed(acct);
      mark_dirty_slot(key.addr, key.slot);
      break;
  }
}

std::shared_ptr<const Bytes> WorldState::code(const Address& addr) const {
  const AccountData* acct = accounts_.find(addr);
  return acct == nullptr ? nullptr : acct->code;
}

void WorldState::set_code(const Address& addr, Bytes code) {
  AccountData& acct = account(addr);
  acct.code_hash =
      code.empty() ? Hash256{} : Hash256::of(std::span(code));
  acct.code = std::make_shared<const Bytes>(std::move(code));
  mark_dirty_account(addr);
}

Hash256 WorldState::code_hash(const Address& addr) const {
  const AccountData* acct = accounts_.find(addr);
  return acct == nullptr ? Hash256{} : acct->code_hash;
}

namespace {

// Slot writes to any number of storage tries, staged so that apply()
// hashes all their secure keys in one keccak256_batch call.
class SlotWrites {
 public:
  /// Stages trie[slot] = value, or the slot's erasure for a null value,
  /// applying the staged writes itself once kMaxStaged are pending.  The
  /// trie and the value must outlive apply().
  void add(trie::SecureTrie& trie, const U256& slot, const U256* value) {
    writes_.push_back({&trie, slot.to_be_bytes(), value});
    if (writes_.size() == kMaxStaged) apply();
  }

  /// Stages every slot of `storage` (never zero-valued).
  void add_all(trie::SecureTrie& trie, const StorageMap& storage) {
    storage.for_each([&](const U256& slot, const U256& value) {
      add(trie, slot, &value);
    });
  }

  void apply() {
    std::vector<std::span<const std::uint8_t>> keys;
    keys.reserve(writes_.size());
    for (const Write& w : writes_) keys.emplace_back(w.key);
    std::vector<crypto::Digest> hashed(keys.size());
    crypto::keccak256_batch(keys, hashed);
    for (std::size_t i = 0; i < writes_.size(); ++i) {
      const Write& w = writes_[i];
      if (w.value == nullptr) {
        w.trie->erase_hashed(hashed[i]);
      } else {
        const auto encoded = rlp::encode(*w.value);
        w.trie->put_hashed(hashed[i], std::span(encoded));
      }
    }
    writes_.clear();
  }

 private:
  // Plenty for full 8-way batches; small enough that a cold root over a
  // whole genesis never stages every slot at once (that showed as +4 MB
  // peak RSS on the mainnet benchmark).
  static constexpr std::size_t kMaxStaged = 4096;

  struct Write {
    trie::SecureTrie* trie;
    std::array<std::uint8_t, 32> key;  // big-endian slot
    const U256* value;
  };
  std::vector<Write> writes_;
};

// Folds plus slot writes per chunk of hash_folds_unlocked: enough to fill
// the 8-lane Keccak batches of the lower trie levels, few enough that
// sibling replicas committing the same block share finished storage tries.
constexpr std::size_t kChunkWork = 64;

Hash256 storage_root_of(const StorageMap& storage) {
  trie::SecureTrie st;
  SlotWrites writes;
  writes.add_all(st, storage);
  writes.apply();
  return st.root_hash();
}

// RLP account encoding [nonce, balance, storageRoot, codeHash].
Bytes encode_account(const AccountData& acct, const Hash256& storage_root,
                     const Hash256& code_hash) {
  rlp::Encoder enc;
  enc.begin_list()
      .add(U256{acct.nonce})
      .add(acct.balance)
      .add(storage_root)
      .add(code_hash)
      .end_list();
  return enc.take();
}

// The codeHash field from the set_code memo: AccountData::code_hash is zero
// for code-less accounts, whose field is keccak("").
Hash256 memoized_code_hash(const AccountData& acct) {
  static const Hash256 kEmptyCodeHash{
      crypto::keccak256(std::span<const std::uint8_t>{})};
  const bool has_code = acct.code != nullptr && !acct.code->empty();
  return has_code ? acct.code_hash : kEmptyCodeHash;
}

}  // namespace

// state_root() protocol — every keccak runs outside commit_mu_:
//
//   collect (commit_mu_)   snapshot the dirty set into per-account folds:
//                          persistent copies of the storage tries to apply
//                          slots to, seed cells for fresh accounts, memoized
//                          roots for body-only changes.  No hashing.
//   hash    (unlocked)     in chunks of folds: adopt ready storage tries,
//                          apply every other fold's slot writes (secure keys
//                          hashed in one batch), hash their roots in one
//                          MerklePatriciaTrie::hash_all call and publish
//                          them to the seed cells.  Then RLP-encode the
//                          accounts and batch-hash their secure keys.  Reads
//                          accounts_ without the lock — writes never race
//                          with root queries by contract, so the maps are
//                          stable.
//   install (commit_mu_)   fold results back into commit_ and the account
//                          trie (puts/erases by hashed key only), clear the
//                          dirty set, take a persistent account-trie
//                          snapshot.  No hashing.
//   root    (unlocked)     hash the snapshot's root.
//   memo    (commit_mu_)   publish the memo if nothing re-dirtied.
//
// The fold is idempotent — re-seeding a fresh account or re-applying dirty
// slots from the current accounts_ values reproduces the same tries — so a
// copy taken between any two phases (which still sees the dirty set) simply
// re-folds on its own first state_root() and lands on the same root.
// root_mu_ serializes whole computations so two rooters on the same object
// cannot interleave their unlocked phases.
struct WorldState::StorageFold {
  enum class Kind { kPrune, kBuild, kApplySlots, kBodyOnly };

  Address addr;
  Kind kind = Kind::kBodyOnly;
  const AccountData* acct = nullptr;  // stable: no writes during root calls
  std::shared_ptr<StorageSeed> seed;  // kBuild: the account's cell (may be null)
  std::shared_ptr<StorageSeed> block_cell;  // block-level cell (may be null)
  trie::SecureTrie trie;              // working persistent copy
  std::vector<U256> slots;            // kApplySlots: touched slots
  Hash256 storage_root;
  Bytes encoded;                      // account RLP, produced off-lock
  crypto::Digest key_hash{};          // keccak(addr), the account trie key
  bool adopted = false;               // kBuild: served from a ready seed
  bool published = false;             // this computation filled the account cell
  bool block_adopted = false;         // served from the block cell
  bool block_published = false;       // this computation filled the block cell
};

/// One-time fill of a seed cell (account- or block-level).  Returns whether
/// this call published; a no-op on an already-ready cell.
static bool publish_seed(const std::shared_ptr<StorageSeed>& cell,
                         const trie::SecureTrie& trie, const Hash256& root) {
  if (cell == nullptr) return false;
  std::scoped_lock sl(cell->mu);
  if (cell->ready.load(std::memory_order_relaxed)) return false;
  cell->trie = trie;
  cell->storage_root = root;
  cell->ready.store(true, std::memory_order_release);
  return true;
}

std::vector<WorldState::StorageFold> WorldState::collect_folds_locked() const {
  std::vector<StorageFold> folds;
  folds.reserve(dirty_.size());
  stats_.dirty_accounts += dirty_.size();
  for (const auto& [addr, slots] : dirty_) {
    StorageFold f;
    f.addr = addr;
    const AccountData* acct = accounts_.find(addr);
    if (acct == nullptr || acct->empty_account()) {
      // Pruned like post-EIP-161: drop from the commitment (and the memo,
      // so a later resurrection rebuilds — or re-adopts its seed).
      f.kind = StorageFold::Kind::kPrune;
      folds.push_back(std::move(f));
      continue;
    }
    f.acct = acct;
    // Read before writing: commit_[addr] would clone a bucket shared with
    // copies, and only kBuild needs the memo entry to exist.
    const AccountCommit* cc = commit_.find(addr);
    if (cc == nullptr || cc->fresh) {
      f.kind = StorageFold::Kind::kBuild;
      f.seed = acct->storage_seed;
    } else if (!slots.empty()) {
      f.kind = StorageFold::Kind::kApplySlots;
      f.trie = cc->storage_trie;  // persistent: puts off-lock path-copy
      f.slots.assign(slots.begin(), slots.end());
    } else {
      f.kind = StorageFold::Kind::kBodyOnly;
      f.storage_root = cc->storage_root;
    }
    // Block-level sharing: folds that would hash (build or apply) rendezvous
    // with sibling replicas of the same block through a per-account cell.
    if (block_seeds_ != nullptr && (f.kind == StorageFold::Kind::kBuild ||
                                    f.kind == StorageFold::Kind::kApplySlots))
      f.block_cell = block_seeds_->cell_for(addr);
    folds.push_back(std::move(f));
  }
  return folds;
}

void WorldState::hash_folds_unlocked(std::vector<StorageFold>& folds) const {
  // Adopts what a seed cell already holds, or stages the fold's writes;
  // returns how many writes it staged.
  const auto adopt_or_stage = [](StorageFold& f, SlotWrites& writes) {
    switch (f.kind) {
      case StorageFold::Kind::kPrune:
      case StorageFold::Kind::kBodyOnly:
        return std::size_t{0};
      case StorageFold::Kind::kBuild:
        if (f.seed != nullptr &&
            f.seed->ready.load(std::memory_order_acquire)) {
          // Another lineage already committed this exact slot map (cell
          // identity guarantees content identity): adopt its trie in O(1).
          f.trie = f.seed->trie;
          f.storage_root = f.seed->storage_root;
          f.adopted = true;
          return std::size_t{0};
        }
        if (f.block_cell != nullptr &&
            f.block_cell->ready.load(std::memory_order_acquire)) {
          // A sibling replica of the same block already built this account's
          // post-block trie (deterministic replay guarantees content
          // identity): adopt it in O(1).
          f.trie = f.block_cell->trie;
          f.storage_root = f.block_cell->storage_root;
          f.adopted = true;
          f.block_adopted = true;
          return std::size_t{0};
        }
        writes.add_all(f.trie, f.acct->storage);
        return f.acct->storage.size();
      case StorageFold::Kind::kApplySlots:
        if (f.block_cell != nullptr &&
            f.block_cell->ready.load(std::memory_order_acquire)) {
          // Sibling replica already holds the post-block trie; identical
          // final slot maps make adoption equivalent to re-applying.
          f.trie = f.block_cell->trie;
          f.storage_root = f.block_cell->storage_root;
          f.block_adopted = true;
          return std::size_t{0};
        }
        // Only the touched slots; untouched subtrees keep their memoized
        // hashes inside the persistent trie.
        for (const U256& slot : f.slots)
          writes.add(f.trie, slot, f.acct->storage.find(slot));
        return f.slots.size();
    }
    return std::size_t{0};
  };
  const auto written = [](const StorageFold& f) {
    return (f.kind == StorageFold::Kind::kBuild && !f.adopted) ||
           (f.kind == StorageFold::Kind::kApplySlots && !f.block_adopted);
  };

  // Folds go in chunks of about kChunkWork folds plus slot writes.  Each
  // chunk hashes all its written storage tries in one hash_all call, so each
  // trie level's Keccak batches span accounts, and publishes them before the
  // next chunk checks its cells: a sibling replica committing the same block
  // at the same time adopts what this one has finished, and vice versa.
  for (std::size_t begin = 0, end = 0; begin < folds.size(); begin = end) {
    SlotWrites writes;
    for (std::size_t work = 0; end < folds.size() && work < kChunkWork;)
      work += 1 + adopt_or_stage(folds[end++], writes);
    writes.apply();

    std::vector<const trie::MerklePatriciaTrie*> tries;
    for (std::size_t i = begin; i < end; ++i)
      if (written(folds[i])) tries.push_back(&folds[i].trie.inner());
    trie::MerklePatriciaTrie::hash_all(tries);

    for (std::size_t i = begin; i < end; ++i) {
      StorageFold& f = folds[i];
      if (f.kind == StorageFold::Kind::kPrune) continue;
      if (written(f)) f.storage_root = f.trie.root_hash();
      if (f.kind == StorageFold::Kind::kBuild) {
        // Cross-publish so whichever cell is still empty serves the next
        // replica (an already-ready cell makes publish_seed a no-op).
        f.published = publish_seed(f.seed, f.trie, f.storage_root);
        f.block_published = publish_seed(f.block_cell, f.trie, f.storage_root);
      } else if (written(f)) {
        f.block_published = publish_seed(f.block_cell, f.trie, f.storage_root);
      }
      f.encoded =
          encode_account(*f.acct, f.storage_root, memoized_code_hash(*f.acct));
    }
  }

  std::vector<std::span<const std::uint8_t>> addrs;
  addrs.reserve(folds.size());
  for (const StorageFold& f : folds) addrs.emplace_back(f.addr.bytes);
  std::vector<crypto::Digest> keys(folds.size());
  crypto::keccak256_batch(addrs, keys);
  for (std::size_t i = 0; i < folds.size(); ++i) folds[i].key_hash = keys[i];
}

trie::SecureTrie WorldState::install_folds_locked(
    std::vector<StorageFold>& folds) const {
  for (StorageFold& f : folds) {
    if (f.kind == StorageFold::Kind::kPrune) {
      account_trie_.erase_hashed(f.key_hash);
      commit_.erase(f.addr);
      continue;
    }
    // Body-only folds leave the memo as it is, so they never clone a
    // commit_ bucket shared with copies.
    if (f.kind != StorageFold::Kind::kBodyOnly) {
      AccountCommit& cc = commit_[f.addr];
      cc.storage_trie = std::move(f.trie);
      cc.storage_root = f.storage_root;
      cc.fresh = false;
    }
    switch (f.kind) {
      case StorageFold::Kind::kBuild:
        if (f.adopted)
          ++stats_.seeds_adopted;
        else
          ++stats_.accounts_resynced;
        if (f.published) ++stats_.seeds_built;
        break;
      case StorageFold::Kind::kApplySlots:
        if (f.block_adopted)
          ++stats_.seeds_adopted;
        else
          stats_.slots_resynced += f.slots.size();
        break;
      case StorageFold::Kind::kBodyOnly:
      case StorageFold::Kind::kPrune:
        break;
    }
    if (f.block_published) ++stats_.seeds_built;
    if (block_seeds_ != nullptr) {
      if (f.block_adopted)
        block_seeds_->seeds_adopted.fetch_add(1, std::memory_order_relaxed);
      if (f.block_published)
        block_seeds_->seeds_built.fetch_add(1, std::memory_order_relaxed);
    }
    account_trie_.put_hashed(f.key_hash, std::span(f.encoded));
  }
  dirty_.clear();
  root_valid_ = false;
  block_seeds_ = nullptr;  // one-shot: consumed by this computation
  return account_trie_;  // persistent snapshot: shares nodes, O(1)
}

Hash256 WorldState::storage_root(const Address& addr) const {
  const AccountData* acct = accounts_.find(addr);
  if (acct == nullptr) return trie::MerklePatriciaTrie::empty_root();
  {
    std::scoped_lock lk(commit_mu_);
    const AccountCommit* cc = commit_.find(addr);
    const auto dit = dirty_.find(addr);
    const bool storage_clean = dit == dirty_.end() || dit->second.empty();
    if (cc != nullptr && !cc->fresh && storage_clean) return cc->storage_root;
  }
  // A ready seed cell is always in sync with the current slot map (writes
  // swap the cell), so it answers even before this state's first commit.
  if (const auto& seed = acct->storage_seed;
      seed != nullptr && seed->ready.load(std::memory_order_acquire))
    return seed->storage_root;
  return storage_root_of(acct->storage);
}

Hash256 WorldState::state_root() const {
  {
    std::scoped_lock lk(commit_mu_);
    if (root_valid_ && dirty_.empty()) {
      ++stats_.root_memo_hits;
      return root_memo_;
    }
  }
  // Serialize whole computations; copies contend only on commit_mu_ below.
  std::scoped_lock rl(root_mu_);
  std::vector<StorageFold> folds;
  {
    std::scoped_lock lk(commit_mu_);
    if (root_valid_ && dirty_.empty()) {
      ++stats_.root_memo_hits;
      return root_memo_;
    }
    folds = collect_folds_locked();
  }
  hash_folds_unlocked(folds);
  trie::SecureTrie snapshot;
  {
    std::scoped_lock lk(commit_mu_);
    snapshot = install_folds_locked(folds);
  }
  const Hash256 root = snapshot.root_hash();
  {
    std::scoped_lock lk(commit_mu_);
    ++stats_.root_recomputes;
    if (dirty_.empty()) {
      root_memo_ = root;
      root_valid_ = true;
    }
  }
  return root;
}

// Re-hashes every storage map and every contract's code, so it also checks
// the code_hash memo the incremental path encodes.
Hash256 WorldState::state_root_full_rebuild() const {
  trie::SecureTrie accounts_trie;
  accounts_.for_each([&accounts_trie](const Address& addr,
                                      const AccountData& acct) {
    if (acct.empty_account()) return;
    const std::span<const std::uint8_t> code =
        acct.code != nullptr ? std::span(*acct.code)
                             : std::span<const std::uint8_t>{};
    const Bytes encoded = encode_account(acct, storage_root_of(acct.storage),
                                         Hash256{crypto::keccak256(code)});
    accounts_trie.put(std::span(addr.bytes), std::span(encoded));
  });
  return accounts_trie.root_hash();
}

CommitStats WorldState::commit_stats() const {
  std::scoped_lock lk(commit_mu_);
  return stats_;
}

void WorldState::adopt_block_seeds(std::shared_ptr<BlockSeedSet> seeds) {
  std::scoped_lock lk(commit_mu_);
  block_seeds_ = std::move(seeds);
}

std::size_t WorldState::persist_commitment(db::NodeStore& store) const {
  const Hash256 root = state_root();  // folds dirty writes; memos current
  // Fast path: a stored root implies its whole closure is stored (persists
  // append post-order, so nothing can reference a missing descendant — see
  // persist_subtree).  Re-commits of an already-persisted state — the chain
  // layer persisting after the pipeline already did, sibling blocks sharing
  // a parent — skip the snapshot and the storage-trie walk entirely.
  if (store.contains(root)) return 0;
  // Snapshot the persistent tries under the short structural lock (O(1)
  // copies sharing the node graphs) and persist outside it, so concurrent
  // root computations never wait on store I/O.
  trie::SecureTrie account_snapshot;
  std::vector<trie::SecureTrie> storage_snapshots;
  {
    std::scoped_lock lk(commit_mu_);
    account_snapshot = account_trie_;
    storage_snapshots.reserve(commit_.size());
    commit_.for_each([&storage_snapshots](const Address&,
                                          const AccountCommit& memo) {
      if (!memo.fresh && !memo.storage_trie.empty())
        storage_snapshots.push_back(memo.storage_trie);
    });
  }
  // Storage tries first: account leaves embed storageRoot references, so
  // the post-order invariant extends across tries — by the time an account
  // node lands in the file, every storage node it commits to is already
  // there.
  std::size_t appended = 0;
  for (const auto& storage : storage_snapshots)
    appended += storage.persist_nodes(store);
  appended += account_snapshot.persist_nodes(store);
  return appended;
}

}  // namespace blockpilot::state
