// Concurrency stress tests for the commit subsystem and its supporting
// primitives.  Registered under the `stress` ctest label (and `commit`, so
// the tsan-commit preset picks them up): the interesting assertions here
// are the ones ThreadSanitizer makes — copies taken while commits are in
// flight, concurrent rooters sharing persistent tries and seed cells, and
// producer/consumer hammering of ThreadPool / MpmcQueue.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "commit/commit_pipeline.hpp"
#include "state/versioned_state.hpp"
#include "state/world_state.hpp"
#include "support/mpmc_queue.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trie/mpt.hpp"

namespace blockpilot {
namespace {

using state::StateKey;
using state::WorldState;

Address addr_of(std::uint64_t id) { return Address::from_id(id); }

void random_writes(Xoshiro256& rng, WorldState& ws, int count) {
  for (int i = 0; i < count; ++i) {
    const Address addr = addr_of(1 + rng() % 48);
    switch (rng() % 6) {
      case 0:
        ws.set(StateKey::balance(addr), U256{rng() % 500});
        break;
      case 1:
        ws.set(StateKey::nonce(addr), U256{rng() % 32});
        break;
      default: {
        const U256 val = (rng() % 5 == 0) ? U256{} : U256{rng() % 10'000};
        ws.set(StateKey::storage(addr, U256{rng() % 12}), val);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// WorldState: copy / commit overlap

TEST(StressWorldState, CopiesTakenDuringInFlightCommitStayCorrect) {
  // One thread computes the root (the in-flight commit) while the main
  // thread repeatedly copies the same state and a second thread roots it
  // again concurrently.  Every copy must produce the oracle root.
  Xoshiro256 rng(0xAB1E);
  WorldState ws;
  random_writes(rng, ws, 256);
  const Hash256 oracle = ws.state_root_full_rebuild();

  for (int round = 0; round < 4; ++round) {
    random_writes(rng, ws, 64);
    const Hash256 expect = ws.state_root_full_rebuild();

    std::vector<WorldState> copies;
    {
      std::jthread rooter1([&ws] { (void)ws.state_root(); });
      std::jthread rooter2([&ws] { (void)ws.state_root(); });
      for (int c = 0; c < 6; ++c) copies.emplace_back(ws);
    }  // join rooters

    EXPECT_EQ(ws.state_root(), expect) << "round " << round;
    for (auto& copy : copies)
      EXPECT_EQ(copy.state_root(), expect) << "round " << round;
  }
  (void)oracle;
}

TEST(StressWorldState, ConcurrentRootersAgreeOnOneObject) {
  Xoshiro256 rng(0xCAFE);
  WorldState ws;
  for (int round = 0; round < 6; ++round) {
    random_writes(rng, ws, 96);
    const Hash256 expect = ws.state_root_full_rebuild();
    std::vector<Hash256> roots(4);
    {
      std::vector<std::jthread> rooters;
      for (std::size_t t = 0; t < roots.size(); ++t)
        rooters.emplace_back([&ws, &roots, t] { roots[t] = ws.state_root(); });
    }
    for (const Hash256& r : roots) EXPECT_EQ(r, expect) << "round " << round;
  }
}

TEST(StressWorldState, ForksCommittingConcurrentlyShareSeeds) {
  // Fresh accounts with pending storage writes are forked, and both forks
  // commit at the same time: the seed cells' fill-once / adopt-many path
  // runs under real contention.  Roots must match the oracle either way.
  Xoshiro256 rng(0x5EED);
  WorldState head;
  random_writes(rng, head, 64);
  for (int round = 0; round < 6; ++round) {
    // Touch a batch of brand-new accounts so both forks see them fresh.
    for (std::uint64_t i = 0; i < 6; ++i) {
      const Address fresh = addr_of(1000 + round * 16 + i);
      head.set(StateKey::storage(fresh, U256{i}), U256{round * 100 + i + 1});
      head.set(StateKey::balance(fresh), U256{1});
    }
    WorldState a = head;
    WorldState b = head;
    Hash256 ra, rb;
    {
      std::jthread ta([&a, &ra] { ra = a.state_root(); });
      std::jthread tb([&b, &rb] { rb = b.state_root(); });
    }
    EXPECT_EQ(ra, rb) << "round " << round;
    EXPECT_EQ(ra, head.state_root_full_rebuild()) << "round " << round;
    random_writes(rng, head, 24);
    head = (round % 2) ? std::move(a) : std::move(b);
    random_writes(rng, head, 24);
  }
  EXPECT_EQ(head.state_root(), head.state_root_full_rebuild());
}

TEST(StressWorldState, CommitPipelineOverlapsCopiesAndSubmissions) {
  // Chained submissions through a real pool while the main thread keeps
  // copying the just-submitted (immutable) states.
  ThreadPool pool(2);
  commit::CommitPipeline pipe(&pool);
  Xoshiro256 rng(0xF10);

  auto parent = std::make_shared<const WorldState>();
  std::vector<commit::CommitHandle> handles;
  std::vector<Hash256> oracles;
  for (int h = 0; h < 8; ++h) {
    auto next = std::make_shared<WorldState>(*parent);
    random_writes(rng, *next, 48);
    std::shared_ptr<const WorldState> sealed = std::move(next);
    handles.push_back(pipe.submit(sealed));
    oracles.push_back(sealed->state_root_full_rebuild());
    // Copy while the pipeline may still be hashing this very state.
    const WorldState snapshot(*sealed);
    EXPECT_EQ(snapshot.state_root_full_rebuild(), oracles.back());
    parent = std::move(sealed);
  }
  for (std::size_t h = 0; h < handles.size(); ++h) {
    const auto& res = handles[h].get();
    EXPECT_EQ(res.state_root, oracles[h]) << "height " << h;
    if (h > 0) EXPECT_GT(res.sequence, handles[h - 1].get().sequence);
  }
}

TEST(StressWorldState, CopiesOfASharedParentRaceTheOwnersWrites) {
  // Copies share the parent's persistent maps.  Reader threads copy, write
  // and drop copies of the const parent and of the owner's published
  // snapshots while the owner keeps writing its own copy, so every write
  // must clone what a snapshot on another thread still reads.  The
  // interesting assertions are ThreadSanitizer's; the explicit ones check
  // that no write leaks into the parent or into a published snapshot.
  Xoshiro256 rng(0xC0B1E5);
  WorldState genesis;
  random_writes(rng, genesis, 512);
  const auto parent = std::make_shared<const WorldState>(std::move(genesis));
  const Hash256 parent_root = parent->state_root();
  const Address counter = addr_of(1000);  // outside random_writes' range

  std::mutex mu;
  std::shared_ptr<const WorldState> published = parent;  // guarded by mu
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  auto reader = [&](std::uint64_t seed) {
    Xoshiro256 local(seed);
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const WorldState> snap;
      {
        std::scoped_lock lk(mu);
        snap = published;
      }
      WorldState copy = (local() % 2) ? *parent : *snap;
      random_writes(local, copy, 8);  // private to this copy
      if (snap->get(StateKey::balance(counter)) !=
              snap->get(StateKey::nonce(counter)) ||
          parent->get(StateKey::balance(counter)) != U256{})
        ++mismatches;
      if (local() % 16 == 0 &&
          copy.state_root() != copy.state_root_full_rebuild())
        ++mismatches;
    }
  };
  std::vector<std::thread> readers;
  for (std::uint64_t t = 0; t < 3; ++t) readers.emplace_back(reader, 7 + t);

  WorldState owner = *parent;
  for (std::uint64_t v = 1; v <= 400; ++v) {
    random_writes(rng, owner, 16);
    owner.set(StateKey::balance(counter), U256{v});
    owner.set(StateKey::nonce(counter), U256{v});
    if (v % 8 == 0) {
      (void)owner.state_root();  // commits share the memo maps too
      auto snap = std::make_shared<const WorldState>(owner);
      std::scoped_lock lk(mu);
      published = std::move(snap);  // the previous snapshot may drop here
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(owner.get(StateKey::balance(counter)), U256{400});
  EXPECT_EQ(owner.state_root(), owner.state_root_full_rebuild());
  EXPECT_EQ(parent->state_root(), parent_root);
  EXPECT_EQ(parent->state_root_full_rebuild(), parent_root);
  EXPECT_EQ(published->state_root(), published->state_root_full_rebuild());
}

TEST(StressWorldState, ParentDroppedOnAnotherThreadBeforeChildWrites) {
  // The child starts as a copy of the parent, so every bucket it reaches is
  // the parent's.  Reader threads hold the only other references, read
  // everything and drop them; the last drop leaves the child sole owner,
  // and the child's writes then go in place into memory the readers read.
  // No lock orders the two: only the ownership test itself may (the flag
  // below is relaxed on purpose), so ThreadSanitizer checks that test.
  constexpr std::uint64_t kAccounts = 2048;
  constexpr int kReaders = 3;
  WorldState genesis;
  for (std::uint64_t id = 1; id <= kAccounts; ++id) {
    genesis.set(StateKey::balance(addr_of(id)), U256{id});
    genesis.set(StateKey::storage(addr_of(id), U256{id % 7}), U256{id});
  }
  auto parent = std::make_shared<const WorldState>(std::move(genesis));
  const Hash256 parent_root = parent->state_root();
  WorldState child = *parent;

  std::atomic<int> dropped{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([held = parent, &dropped, &mismatches]() mutable {
      for (std::uint64_t id = 1; id <= kAccounts; ++id)
        if (held->get(StateKey::balance(addr_of(id))) != U256{id}) ++mismatches;
      WorldState scratch = *held;  // clones shared buckets: reads them
      scratch.set(StateKey::balance(addr_of(1 + kAccounts / 2)), U256{});
      held.reset();
      dropped.fetch_add(1, std::memory_order_relaxed);
    });
  }
  parent.reset();
  while (dropped.load(std::memory_order_relaxed) < kReaders)
    std::this_thread::yield();
  for (std::uint64_t id = 1; id <= kAccounts; ++id) {
    child.set(StateKey::balance(addr_of(id)), U256{id + 1});
    child.set(StateKey::storage(addr_of(id), U256{id % 7}), U256{});
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_NE(child.state_root(), parent_root);
  EXPECT_EQ(child.state_root(), child.state_root_full_rebuild());
  EXPECT_EQ(child.get(StateKey::balance(addr_of(kAccounts))),
            U256{kAccounts + 1});
}

TEST(StressTrie, SharedTrieDroppedOnAnotherThreadBeforeOwnersPut) {
  // The trie counterpart of the test above.  Reader threads hold the only
  // other copy of a hashed trie, read every key and drop it; the last drop
  // leaves the owner sole owner of every node, and its puts then rewrite
  // those nodes in place.  Only the ownership test in trie::owned() may
  // order the readers' reads before those writes (the flag is relaxed on
  // purpose), so ThreadSanitizer checks that test.
  constexpr std::uint64_t kKeys = 2048;
  constexpr int kReaders = 3;
  const auto key_of = [](std::uint64_t id) {
    return Hash256::of(U256{id}.to_be_bytes());
  };
  trie::MerklePatriciaTrie owner;
  for (std::uint64_t id = 1; id <= kKeys; ++id) {
    const auto value = U256{id}.to_be_bytes();
    const Hash256 key = key_of(id);
    owner.put(std::span(key.bytes), std::span(value));
  }
  const Hash256 shared_root = owner.root_hash();
  auto shared = std::make_shared<const trie::MerklePatriciaTrie>(owner);

  std::atomic<int> dropped{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([held = shared, key_of, &dropped, &mismatches]() mutable {
      for (std::uint64_t id = 1; id <= kKeys; ++id) {
        const Hash256 key = key_of(id);
        const auto got = held->get(std::span(key.bytes));
        const auto want = U256{id}.to_be_bytes();
        if (!got || !std::equal(got->begin(), got->end(), want.begin(), want.end()))
          ++mismatches;
      }
      held.reset();
      dropped.fetch_add(1, std::memory_order_relaxed);
    });
  }
  shared.reset();
  while (dropped.load(std::memory_order_relaxed) < kReaders)
    std::this_thread::yield();
  trie::MerklePatriciaTrie rebuilt;
  for (std::uint64_t id = 1; id <= kKeys; ++id) {
    const auto value = U256{id + 1}.to_be_bytes();
    const Hash256 key = key_of(id);
    owner.put(std::span(key.bytes), std::span(value));
    rebuilt.put(std::span(key.bytes), std::span(value));
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_NE(owner.root_hash(), shared_root);
  EXPECT_EQ(owner.root_hash(), rebuilt.root_hash());
}

// ---------------------------------------------------------------------------
// ThreadPool / MpmcQueue hammering

TEST(StressSupport, ThreadPoolHammerFromManyProducers) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr int kProducers = 8;
  constexpr int kTasksEach = 500;
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pool, &sum, p] {
        for (int t = 0; t < kTasksEach; ++t)
          pool.submit([&sum, p, t] {
            sum.fetch_add(static_cast<std::uint64_t>(p) * kTasksEach + t + 1,
                          std::memory_order_relaxed);
          });
      });
    }
  }  // join producers
  pool.wait_idle();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kTasksEach;
  EXPECT_EQ(sum.load(), kTotal * (kTotal + 1) / 2);
}

TEST(StressSupport, ThreadPoolNestedSubmissionsDrain) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  for (int t = 0; t < 64; ++t) {
    pool.submit([&pool, &executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(executed.load(), 128);
}

TEST(StressSupport, MpmcQueueConservesItemsUnderContention) {
  MpmcQueue<std::uint64_t> queue(64);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kItemsEach = 2000;
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<std::uint64_t> consumed_count{0};

  std::vector<std::jthread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &consumed_sum, &consumed_count] {
      while (auto item = queue.pop()) {
        consumed_sum.fetch_add(*item, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&queue, p] {
        for (std::uint64_t i = 0; i < kItemsEach; ++i)
          ASSERT_TRUE(queue.push(p * kItemsEach + i + 1));
      });
    }
  }  // join producers
  queue.close();
  consumers.clear();  // join consumers

  constexpr std::uint64_t kTotal = kProducers * kItemsEach;
  EXPECT_EQ(consumed_count.load(), kTotal);
  EXPECT_EQ(consumed_sum.load(), kTotal * (kTotal + 1) / 2);
}

TEST(StressSupport, MpmcQueueMixedPopAndTryPop) {
  MpmcQueue<int> queue(16);
  std::atomic<int> got{0};
  std::vector<std::jthread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&queue, &got, c] {
      for (;;) {
        if (c == 0) {
          // One consumer spins on try_pop to exercise the non-blocking path.
          if (auto item = queue.try_pop()) {
            got.fetch_add(1, std::memory_order_relaxed);
          } else if (queue.closed() && queue.size() == 0) {
            return;
          } else {
            std::this_thread::yield();
          }
        } else {
          auto item = queue.pop();
          if (!item.has_value()) return;
          got.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  consumers.clear();
  EXPECT_EQ(got.load(), 3000);
}

// ---------------------------------------------------------------------------
// Sharded VersionedState: lock-free read/validation paths racing commits

TEST(StressVersionedState, SnapshotReadersRacingCommitterSeeOracleValues) {
  // N reader threads hammer snapshot reads (through per-thread ReadCaches,
  // like proposer executors) while one committer appends versions.  Each
  // reader pins the snapshot it loaded and every value it observes must
  // equal the serial oracle's value at that snapshot — regardless of how
  // far the committer has advanced.  Under TSan this also proves the
  // stamp-table fast paths and stripe publication order are race-free.
  constexpr std::uint64_t kVersions = 200;
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kKeys = 96;

  state::WorldState base;
  std::vector<StateKey> keys;
  for (std::size_t a = 0; a < kKeys / 2; ++a) {
    keys.push_back(StateKey::balance(addr_of(a + 1)));
    keys.push_back(StateKey::storage(addr_of(a + 1), U256{a}));
  }
  for (std::size_t i = 0; i < keys.size(); ++i)
    base.set(keys[i], U256{i + 1000});

  // Pre-build the commit schedule and the oracle: value_at[v][i] is the
  // serial value of keys[i] after versions 1..v applied in order.
  Xoshiro256 rng(0x57AE55);
  std::vector<std::vector<std::pair<StateKey, U256>>> schedule;
  std::vector<std::vector<U256>> value_at(kVersions + 1);
  value_at[0].resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    value_at[0][i] = base.get(keys[i]);
  for (std::uint64_t v = 1; v <= kVersions; ++v) {
    value_at[v] = value_at[v - 1];
    std::vector<std::pair<StateKey, U256>> ws;
    std::vector<bool> used(keys.size(), false);
    while (ws.size() < 3) {
      const std::size_t i = rng.below(keys.size());
      if (used[i]) continue;
      used[i] = true;
      const U256 val{v * 1'000'000 + i};
      ws.emplace_back(keys[i], val);
      value_at[v][i] = val;
    }
    schedule.push_back(std::move(ws));
  }

  state::VersionedState vs(base);
  std::atomic<bool> stop{false};
  std::vector<std::jthread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rd(0xFEED + r);
      state::ReadCache cache;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t snap = vs.committed_version();
        for (int probe = 0; probe < 16; ++probe) {
          const std::size_t i = rd.below(keys.size());
          const U256 got = vs.read_at(keys[i], snap, cache);
          ASSERT_EQ(got, value_at[snap][i])
              << "key " << i << " at snapshot " << snap;
          // Validation-path check, negative direction only (a racing commit
          // may legitimately raise the stamp at any moment): `now` is loaded
          // BEFORE the scan, so if newer_than finds no version above `snap`,
          // no version in (snap, now] touched the key and the oracle values
          // must agree.
          const std::uint64_t now = vs.committed_version();
          if (!vs.newer_than(keys[i], snap)) {
            ASSERT_EQ(value_at[now][i], value_at[snap][i]);
          }
        }
      }
    });
  }

  for (std::uint64_t v = 1; v <= kVersions; ++v) {
    vs.commit(schedule[v - 1], v);
    if (v % 32 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  readers.clear();

  // Quiescent cross-check: final snapshot equals the oracle everywhere.
  state::ReadCache cache;
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(vs.read_at(keys[i], kVersions, cache), value_at[kVersions][i]);
}

}  // namespace
}  // namespace blockpilot
