// Allocation-lean frontier mechanics for the exact search engine
// (DESIGN.md §9/§11): the search keys, an open-addressing flat distance
// map, pooled wave buffers, and the two ways a configuration is stored —
// inline as its own key (graphs of up to 256 nodes) or interned behind a
// stable id (any size). Every container is templated on the key type, so
// the one searcher in brute_force.cc runs over any of them. Every dist-map
// shard is a flat linear-probe table (one contiguous slab, grown by
// doubling, never freed mid-search) and level vectors are recycled
// through a pool, so steady-state waves allocate nothing.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.h"

namespace wrbpg {

// Search key of a configuration wider than one 64-bit word: its red mask
// words followed by its blue mask words, compared and hashed as a whole.
template <std::size_t kKeyWords>
struct WideKey {
  std::array<std::uint64_t, kKeyWords> words{};
  friend bool operator==(const WideKey&, const WideKey&) = default;
};

// The hash every keyed table below starts from. A one-word key is
// multiplied by the golden-ratio constant (the dist map's layout for
// 32-node configurations); a wide key folds each word in with a multiply
// and a high-to-low xor, so bits anywhere in any word reach both the high
// bits (shard choice) and the low bits (slot choice).
inline std::uint64_t KeyMix(std::uint64_t key) {
  return key * 0x9e3779b97f4a7c15ull;
}
template <std::size_t kKeyWords>
std::uint64_t KeyMix(const WideKey<kKeyWords>& key) {
  std::uint64_t h = 0;
  for (const std::uint64_t w : key.words) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
  }
  return h;
}

// std::unordered_* hasher over KeyMix.
struct KeyHasher {
  template <typename Key>
  std::size_t operator()(const Key& key) const {
    return static_cast<std::size_t>(KeyMix(key));
  }
};

// Tiny test-and-test-and-set lock for the sharded hot-path tables below.
// Their critical sections are a handful of instructions (one probe, one
// store), so an uncontended atomic exchange (~a few ns) beats a mutex
// call by an order of magnitude on the hottest loop in the repo; 64-way
// sharding keeps contention negligible even at full thread counts. The
// relaxed-spin inner loop keeps the cache line shared while waiting, and
// yield() bounds the damage if a holder is preempted mid-section.
class SpinLock {
 public:
  void lock() {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
        // The critical sections behind this lock are a handful of
        // nanoseconds, so a free holder releases within a few spins; a
        // longer wait means the holder was descheduled (more workers
        // than cores) and burning the rest of our quantum only delays
        // it further — yield early.
        if (++spins >= 64) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// Wave key: f = g + h first (Dijkstra runs with h == 0, so f == g), then
// the Definition 2.2 cost g, then schedule length. The length component
// makes the order well-founded under the free moves (M3/M4 cost nothing,
// so cost alone admits zero-cost cycles like compute-then-delete) and is
// the middle tier of the determinism contract's tie-break; the bb
// engine's cost pass zeroes it out so a zero-cost closure is one wave,
// not a cascade of length-stratified ones.
struct WaveKey {
  Weight f = 0;
  Weight g = 0;
  std::uint32_t len = 0;

  friend bool operator==(const WaveKey&, const WaveKey&) = default;
  friend bool operator<(const WaveKey& a, const WaveKey& b) {
    if (a.f != b.f) return a.f < b.f;
    if (a.g != b.g) return a.g < b.g;
    return a.len < b.len;
  }
};

// Structure-of-arrays buffer for one expansion chunk's wave updates.
// Keys and states live in separate contiguous runs instead of an
// array-of-structs: the merge loop after a wave touches keys first (to
// group updates into pending levels) and only then states, so splitting
// the streams halves the bytes each pass pulls through the cache and
// lets the (smaller) state run stay resident. Cleared per wave, capacity
// retained — steady-state waves allocate nothing.
template <typename Key>
class UpdateBuffer {
 public:
  void Clear() {
    keys_.clear();
    states_.clear();
  }
  void Push(const WaveKey& key, const Key& state) {
    keys_.push_back(key);
    states_.push_back(state);
  }
  std::size_t size() const { return keys_.size(); }
  const WaveKey& key(std::size_t i) const { return keys_[i]; }
  const Key& state(std::size_t i) const { return states_[i]; }

  std::size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(WaveKey) +
           states_.capacity() * sizeof(Key);
  }

 private:
  std::vector<WaveKey> keys_;
  std::vector<Key> states_;
};

// Concurrent key -> best-known (g, len) map. Sharded so parallel
// frontier expansion relaxes edges without a global lock; shortest-path
// distances are unique, so the final contents are independent of which
// thread wins each race — the root of the parallel == sequential
// guarantee. Within a shard, open addressing with linear probing: inserts
// touch one cache line in the common case instead of an allocator.
template <typename Key>
class FlatDistMap {
 public:
  struct Entry {
    Key state{};
    Weight g = 0;
    std::uint32_t len = 0;
    bool used = false;
  };

  // Single-writer mode: a searcher running without a pool tells the map
  // to skip the shard locks entirely — TryImprove is then plain loads and
  // stores. MUST be true whenever more than one thread can call
  // TryImprove concurrently.
  void SetConcurrent(bool concurrent) { concurrent_ = concurrent; }

  // Inserts or lexicographically lowers (g, len) for `s`; true when this
  // call changed the stored value.
  bool TryImprove(const Key& s, Weight g, std::uint32_t len) {
    Shard& shard = shards_[ShardIndex(s)];
    if (concurrent_) {
      std::lock_guard<SpinLock> lock(shard.mu);
      return TryImproveIn(shard, s, g, len);
    }
    return TryImproveIn(shard, s, g, len);
  }

  // Best-effort prefetch of the slot TryImprove(s) will probe first, so
  // expansion loops can overlap the map's cache miss with further move
  // evaluation. Reads a relaxed-atomic snapshot of the shard's slab
  // (published by Rehash under the lock), so a concurrent rehash at worst
  // leaves a stale snapshot — and a prefetch of a dead slab is harmless
  // (the hint has no fault or visibility semantics). Never dereferences.
  void Prefetch(const Key& s) const {
    const Shard& shard = shards_[ShardIndex(s)];
    const Entry* base = shard.probe_base.load(std::memory_order_relaxed);
    if (base == nullptr) return;
    const std::uint64_t h = KeyMix(s);
    const std::size_t i = static_cast<std::size_t>(h ^ (h >> 29)) &
                          shard.probe_mask.load(std::memory_order_relaxed);
    __builtin_prefetch(&base[i], 1, 1);
  }

  // Lock-free lookup; only legal while no expansion is in flight (between
  // waves, and during reconstruction).
  const Entry* Find(const Key& s) const {
    const Shard& shard = shards_[ShardIndex(s)];
    if (shard.slots.empty()) return nullptr;
    const Entry* e = shard.ProbeConst(s);
    return e->used ? e : nullptr;
  }

  // Empties every shard but keeps the slabs — the next phase of a
  // two-phase search reuses the capacity the first phase grew into.
  void Reset() {
    for (Shard& shard : shards_) {
      for (Entry& e : shard.slots) e.used = false;
      shard.size = 0;
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.size;
    return total;
  }

  // Bytes held by the slot slabs — the dominant search allocation and the
  // input to the anytime engine's frontier byte budget. Counts capacity,
  // not occupancy, because capacity is what the allocator charged us.
  std::size_t MemoryBytes() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.slots.capacity() * sizeof(Entry);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShardCount = 64;  // power of two
  static constexpr std::size_t kInitialCapacity = 256;

  static std::size_t ShardIndex(const Key& s) {
    return static_cast<std::size_t>(KeyMix(s) >> 58) & (kShardCount - 1);
  }

  struct Shard {
    SpinLock mu;
    std::vector<Entry> slots;  // power-of-two capacity
    std::size_t size = 0;
    // Prefetch()'s lock-free snapshot of (slots.data(), capacity - 1);
    // written only under `mu` (in Rehash), read relaxed from any worker.
    std::atomic<const Entry*> probe_base{nullptr};
    std::atomic<std::size_t> probe_mask{0};

    std::size_t SlotIndex(const Key& s) const {
      const std::uint64_t h = KeyMix(s);
      return static_cast<std::size_t>(h ^ (h >> 29)) & (slots.size() - 1);
    }
    Entry* Probe(const Key& s) {
      std::size_t i = SlotIndex(s);
      while (slots[i].used && slots[i].state != s) {
        i = (i + 1) & (slots.size() - 1);
      }
      return &slots[i];
    }
    const Entry* ProbeConst(const Key& s) const {
      std::size_t i = SlotIndex(s);
      while (slots[i].used && slots[i].state != s) {
        i = (i + 1) & (slots.size() - 1);
      }
      return &slots[i];
    }
    void Rehash(std::size_t capacity) {
      std::vector<Entry> old = std::exchange(slots, {});
      slots.resize(capacity);
      for (const Entry& e : old) {
        if (e.used) *Probe(e.state) = e;
      }
      probe_base.store(slots.data(), std::memory_order_relaxed);
      probe_mask.store(slots.size() - 1, std::memory_order_relaxed);
    }
  };

  static bool TryImproveIn(Shard& shard, const Key& s, Weight g,
                           std::uint32_t len) {
    if (shard.slots.empty()) shard.Rehash(kInitialCapacity);
    Entry* e = shard.Probe(s);
    if (!e->used) {
      if ((shard.size + 1) * 4 > shard.slots.size() * 3) {
        shard.Rehash(shard.slots.size() * 2);
        e = shard.Probe(s);
      }
      e->state = s;
      e->g = g;
      e->len = len;
      e->used = true;
      ++shard.size;
      return true;
    }
    if (g < e->g || (g == e->g && len < e->len)) {
      e->g = g;
      e->len = len;
      return true;
    }
    return false;
  }

  bool concurrent_ = true;
  Shard shards_[kShardCount];
};

// Recycles the per-level state vectors of the pending map. Extracted
// levels hand their storage back; new levels pull it out again, so after
// the first few waves the frontier runs allocation-free regardless of how
// many levels come and go ("bulk-freed between levels").
template <typename Key>
class LevelPool {
 public:
  std::vector<Key> Acquire() {
    if (pool_.empty()) return {};
    std::vector<Key> v = std::move(pool_.back());
    pool_.pop_back();
    return v;
  }
  void Release(std::vector<Key>&& v) {
    v.clear();
    pool_.push_back(std::move(v));
  }

 private:
  std::vector<std::vector<Key>> pool_;
};

// ---------------------------------------------------------------------------
// Configuration storage. The searcher keeps every configuration as
// `Words()` words of type `Word` — red mask words first, blue mask words
// second — and asks its storage policy only two things: Store() the words
// of a configuration to get its key, and Load() a key's words back. Find()
// is Store's read-only twin for the reconstruction walk, which must not
// invent states.
// ---------------------------------------------------------------------------

// Inline storage for fixed widths: the configuration IS the key, so Store
// and Load are copies and nothing is held. At 32 bits per colour the key
// is one 64-bit word, red in the low half and blue in the high half; wider
// configurations are a WideKey of their 64-bit words.
template <typename WordT, std::size_t kWordsPerColor>
class InlineStates {
 public:
  using Word = WordT;
  static constexpr std::size_t kWords = kWordsPerColor;
  static constexpr bool kPacked =
      2 * kWords * sizeof(Word) == sizeof(std::uint64_t);
  static_assert(kWords > 0);
  static_assert(kPacked || std::is_same_v<Word, std::uint64_t>);
  using Key =
      std::conditional_t<kPacked, std::uint64_t, WideKey<2 * kWords>>;

  explicit InlineStates(std::size_t /*config_words*/) {}

  static void Load(const Key& key, Word* config) {
    if constexpr (kPacked) {
      config[0] = static_cast<Word>(key);
      config[1] = static_cast<Word>(key >> 32);
    } else {
      std::copy(key.words.begin(), key.words.end(), config);
    }
  }
  static bool Store(const Word* config, Key* key) {
    if constexpr (kPacked) {
      *key = static_cast<std::uint64_t>(config[0]) |
             (static_cast<std::uint64_t>(config[1]) << 32);
    } else {
      std::copy(config, config + 2 * kWords, key->words.begin());
    }
    return true;
  }
  static bool Find(const Word* config, Key* key) { return Store(config, key); }

  // Keys live inline in the dist map; nothing here scales with the search.
  std::size_t MemoryBytes() const { return 0; }
};

// Interned storage for graphs past the widest inline key (kWords == 0:
// the word count is the graph's, fixed at runtime). Each configuration is
// `config_words` 64-bit words, stored once and handed out as a stable
// 64-bit id, so the dist map / pending machinery runs unchanged on ids.
//
// Concurrency contract (mirrors FlatDistMap): Store() is safe from any
// pool worker mid-wave; Load() may be called on any id PUBLISHED BEFORE
// the last wave barrier (the level-synchronous searcher only loads states
// from earlier waves while expanding, and TaskGroup::Wait is the
// synchronizing edge). Slabs are fixed-size chunks behind an atomic
// pointer directory, so storing never moves words a reader could hold.
// Find() (lookup without insert) is only called from the single-threaded
// reconstruction walk.
class StateInterner {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWords = 0;
  using Key = std::uint64_t;

  explicit StateInterner(std::size_t config_words) : words_(config_words) {}

  // Copies the words of an interned id into `config`.
  void Load(Key id, std::uint64_t* config) const {
    const Shard& shard = shards_[id & (kShardCount - 1)];
    const std::uint32_t local = static_cast<std::uint32_t>(id >> kShardBits);
    const std::uint64_t* words =
        shard.chunks[local / kChunkStates].load(std::memory_order_acquire) +
        (local % kChunkStates) * words_;
    std::memcpy(config, words, words_ * sizeof(std::uint64_t));
  }

  // Interns `config` and returns its id; false when the chunk directory
  // is exhausted (the caller treats it as a memory cap — at default
  // chunking that is >500M states, far past any byte budget).
  bool Store(const std::uint64_t* config, Key* id) {
    const std::uint64_t h = Hash(config);
    Shard& shard = shards_[ShardIndex(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.slots.empty()) shard.slots.assign(kInitialCapacity, 0);
    std::uint32_t* slot = Probe(shard, h, config);
    if (*slot != 0) {
      *id = MakeId(ShardIndex(h), *slot - 1);
      return true;
    }
    const std::uint32_t local = shard.count;
    const std::size_t chunk = local / kChunkStates;
    if (chunk >= kMaxChunks) return false;
    if (shard.chunks[chunk].load(std::memory_order_relaxed) == nullptr) {
      shard.storage.push_back(
          std::make_unique<std::uint64_t[]>(kChunkStates * words_));
      shard.chunks[chunk].store(shard.storage.back().get(),
                                std::memory_order_release);
    }
    std::uint64_t* dst = shard.chunks[chunk].load(std::memory_order_relaxed) +
                         (local % kChunkStates) * words_;
    std::memcpy(dst, config, words_ * sizeof(std::uint64_t));
    ++shard.count;
    if ((shard.count + 1) * 4 > shard.slots.size() * 3) {
      Rehash(shard);
      slot = Probe(shard, h, config);
    }
    *slot = local + 1;
    *id = MakeId(ShardIndex(h), local);
    return true;
  }

  // Lookup without insert; used by the reconstruction walk to test
  // whether a candidate predecessor was ever discovered.
  bool Find(const std::uint64_t* config, Key* id) const {
    const std::uint64_t h = Hash(config);
    const Shard& shard = shards_[ShardIndex(h)];
    if (shard.slots.empty()) return false;
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 31)) &
                    (shard.slots.size() - 1);
    while (shard.slots[i] != 0) {
      if (Equal(WordsIn(shard, shard.slots[i] - 1), config)) {
        *id = MakeId(ShardIndex(h), shard.slots[i] - 1);
        return true;
      }
      i = (i + 1) & (shard.slots.size() - 1);
    }
    return false;
  }

  std::size_t MemoryBytes() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.storage.size() * kChunkStates * words_ *
                   sizeof(std::uint64_t) +
               shard.slots.capacity() * sizeof(std::uint32_t);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShardCount = 1u << kShardBits;
  static constexpr std::size_t kInitialCapacity = 1024;
  static constexpr std::size_t kChunkStates = 4096;
  static constexpr std::size_t kMaxChunks = 2048;

  struct Shard {
    std::mutex mu;
    std::vector<std::uint32_t> slots;  // local id + 1; 0 == empty
    std::uint32_t count = 0;
    std::vector<std::unique_ptr<std::uint64_t[]>> storage;
    std::atomic<std::uint64_t*> chunks[kMaxChunks] = {};
  };

  static std::size_t ShardIndex(std::uint64_t h) {
    return (h >> 58) & (kShardCount - 1);
  }
  static Key MakeId(std::size_t shard, std::uint32_t local) {
    return (static_cast<Key>(local) << kShardBits) | static_cast<Key>(shard);
  }
  std::uint64_t Hash(const std::uint64_t* w) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < words_; ++i) {
      h ^= w[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ull;
    }
    return h;
  }
  bool Equal(const std::uint64_t* a, const std::uint64_t* b) const {
    return std::memcmp(a, b, words_ * sizeof(std::uint64_t)) == 0;
  }
  const std::uint64_t* WordsIn(const Shard& shard,
                               std::uint32_t local) const {
    return shard.chunks[local / kChunkStates].load(
               std::memory_order_relaxed) +
           (local % kChunkStates) * words_;
  }
  std::uint32_t* Probe(Shard& shard, std::uint64_t h,
                       const std::uint64_t* w) {
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 31)) &
                    (shard.slots.size() - 1);
    while (shard.slots[i] != 0 &&
           !Equal(WordsIn(shard, shard.slots[i] - 1), w)) {
      i = (i + 1) & (shard.slots.size() - 1);
    }
    return &shard.slots[i];
  }
  void Rehash(Shard& shard) {
    std::vector<std::uint32_t> old = std::exchange(
        shard.slots, std::vector<std::uint32_t>(shard.slots.size() * 2, 0));
    for (const std::uint32_t local_plus_1 : old) {
      if (local_plus_1 == 0) continue;
      const std::uint64_t* w = WordsIn(shard, local_plus_1 - 1);
      *Probe(shard, Hash(w), w) = local_plus_1;
    }
  }

  std::size_t words_;
  Shard shards_[kShardCount];
};

}  // namespace wrbpg
