// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// EntropyMemo: the exact-match H(X) memo of the Sec. 6.3 engine, shared by
// every engine handle forked from one core. It is a fixed power-of-two
// table of slots, each three atomic words: a sequence word, the AttrSet key
// and the bits of H.
//
//   * Index: the key's bits XOR-folded down to the table width. When
//     2^NumCols slots fit, the fold is the identity and no two keys share a
//     slot. Otherwise a colliding write simply overwrites the slot: there
//     is no LRU list and nothing to evict.
//   * Get takes no lock. It loads the sequence, the key, H and the
//     sequence again, and returns H only when the sequence is even,
//     non-zero and unchanged and the key matches. So it never returns a
//     torn value or a value stored for another key.
//   * Put claims the slot with one CAS on its sequence word (even -> odd),
//     stores key and H, and publishes (odd -> even). A writer that loses
//     the CAS drops its write: entropies are immutable once computed, so a
//     dropped write costs at most one later recomputation.
//
// Ordering uses acquire/release on the slot words, never standalone fences
// (ThreadSanitizer does not model fences). If Get's acquire load of the key
// or of H reads a concurrent writer's release store, it synchronizes with
// that writer, so the second sequence load sees the writer's claim and the
// read is rejected.

#ifndef MAIMON_ENTROPY_ENTROPY_MEMO_H_
#define MAIMON_ENTROPY_ENTROPY_MEMO_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "util/attr_set.h"

namespace maimon {

class EntropyMemo {
 public:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written; odd = being written
    std::atomic<uint64_t> key{0};
    std::atomic<uint64_t> h_bits{0};
  };

  /// Table size: min(2^num_cols, the largest power of two whose slots fit
  /// in `budget_bytes`). Zero when not even one slot fits; the memo then
  /// misses every Get and drops every Put.
  static size_t SlotsFor(int num_cols, size_t budget_bytes) {
    const size_t fit = budget_bytes / sizeof(Slot);
    if (fit == 0) return 0;
    size_t slots = 1;
    while (slots <= fit / 2) slots *= 2;
    if (num_cols < std::numeric_limits<size_t>::digits &&
        (size_t{1} << num_cols) < slots) {
      slots = size_t{1} << num_cols;
    }
    return slots;
  }

  EntropyMemo(int num_cols, size_t budget_bytes)
      : num_slots_(SlotsFor(num_cols, budget_bytes)),
        slots_(new Slot[num_slots_]) {
    while ((size_t{1} << width_) < num_slots_) ++width_;
  }

  EntropyMemo(const EntropyMemo&) = delete;
  EntropyMemo& operator=(const EntropyMemo&) = delete;

  /// Lock-free lookup: true iff a value stored for exactly `key` was read
  /// whole.
  bool Get(AttrSet key, double* h) const {
    if (num_slots_ == 0) return false;
    const Slot& s = slots_[Index(key)];
    const uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq == 0 || (seq & 1) != 0) return false;
    const uint64_t stored_key = s.key.load(std::memory_order_acquire);
    const uint64_t bits = s.h_bits.load(std::memory_order_acquire);
    if (stored_key != key.bits() ||
        s.seq.load(std::memory_order_relaxed) != seq) {
      return false;
    }
    std::memcpy(h, &bits, sizeof(bits));
    return true;
  }

  /// Stores H(key), overwriting whatever the slot held. Dropped when
  /// another writer holds the slot.
  void Put(AttrSet key, double h) {
    if (num_slots_ == 0) return;
    Slot& s = slots_[Index(key)];
    uint64_t seq = s.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !s.seq.compare_exchange_strong(seq, seq + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    uint64_t bits;
    std::memcpy(&bits, &h, sizeof(bits));
    s.key.store(key.bits(), std::memory_order_release);
    s.h_bits.store(bits, std::memory_order_release);
    s.seq.store(seq + 2, std::memory_order_release);
  }

  size_t num_slots() const { return num_slots_; }
  size_t bytes() const { return num_slots_ * sizeof(Slot); }

 private:
  /// The key's bits XOR-folded into `width_` bits: the identity whenever
  /// every key is narrower than the table.
  size_t Index(AttrSet key) const {
    if (width_ == 0) return 0;
    uint64_t folded = 0;
    for (uint64_t x = key.bits(); x != 0; x >>= width_) folded ^= x;
    return static_cast<size_t>(folded & (num_slots_ - 1));
  }

  const size_t num_slots_;
  int width_ = 0;  // log2(num_slots_)
  const std::unique_ptr<Slot[]> slots_;
};

}  // namespace maimon

#endif  // MAIMON_ENTROPY_ENTROPY_MEMO_H_
