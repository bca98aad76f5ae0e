// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// On-disk format of the persistent single-file store (see DESIGN.md,
// "Persistent store"). The file is a fixed header, a section table, and a
// sequence of 8-byte-aligned sections:
//
//   [Header (64 B)] [SectionEntry x section_count] [section bytes ...]
//
// Every section's payload is self-contained and fixed-layout (little-endian
// scalars, no pointers), so a read-only mmap of the file IS the loaded
// representation: column arrays are used in place, nothing is parsed.
// Integrity is layered:
//
//   * the header carries a CRC32 over its own bytes (field zeroed) plus the
//     exact file size, so truncation and header bit-flips are caught before
//     any section is touched;
//   * each SectionEntry carries a CRC32 of its payload, validated lazily on
//     first access of that section (MappedStore), never trusted before;
//   * the header's fingerprint binds the section table together (FNV-1a
//     over every entry's kind/length/crc and the format version), so
//     sections cannot be swapped between files that individually pass CRC.
//
// Offsets are absolute file offsets and 8-byte aligned, which makes every
// fixed-layout record array directly addressable from the mapping.

#ifndef MAIMON_STORE_FORMAT_H_
#define MAIMON_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace maimon {
namespace store {

/// "MAIMONST" as a little-endian u64 — the first 8 bytes of every store.
constexpr uint64_t kMagic = 0x54534e4f4d49414dULL;

/// Bumped on any layout change. A reader rejects versions it does not
/// know; there is no in-place migration (re-pack with storectl instead).
constexpr uint32_t kFormatVersion = 1;

/// All section payload offsets (and each column array inside kColumnData)
/// are aligned to this, so mapped u32/u64 record arrays are addressable.
constexpr uint64_t kSectionAlign = 8;

/// Section kinds, in the order Writer emits them. A reader looks sections
/// up by kind — order is not load-bearing — but unknown kinds are a
/// version error, not skippable fluff (the fingerprint covers them).
enum SectionKind : uint32_t {
  kMeta = 1,        // MetaSection (one fixed struct)
  kNames = 2,       // interned column-name pool (count, offsets, bytes)
  kSchema = 3,      // u64 AttrSet mask per schema relation
  kJoinTree = 4,    // i32 parent per join-tree node (-1 at the root)
  kMvds = 5,        // 3 x u64 per mined MVD (key, dep0, dep1)
  kProjTable = 6,   // ProjEntry per stored projection
  kProjCols = 7,    // ProjColEntry per stored column, projection-major
  kColumnData = 8,  // concatenated u32 column arrays, each 8-aligned
};

/// Printable name of a section kind ("meta", "join_tree", ...); an unknown
/// kind prints as "kind N".
std::string SectionKindName(uint32_t kind);

/// Fixed 64-byte file header. `header_crc` is CRC32 over these 64 bytes
/// with the header_crc field itself zeroed.
struct Header {
  uint64_t magic = kMagic;
  uint32_t version = kFormatVersion;
  uint32_t section_count = 0;
  /// Exact size of the file in bytes — the truncation detector.
  uint64_t file_bytes = 0;
  /// FNV-1a over (version, then per entry: kind, length, crc) — binds the
  /// section table into one auditable identity.
  uint64_t fingerprint = 0;
  uint32_t header_crc = 0;
  uint32_t reserved0 = 0;
  uint64_t reserved1 = 0;
  uint64_t reserved2 = 0;
  uint64_t reserved3 = 0;
};
static_assert(sizeof(Header) == 64, "header layout drifted");

/// One section-table entry: where the payload lives and what it must hash
/// to. Offsets are absolute and kSectionAlign-aligned.
struct SectionEntry {
  uint32_t kind = 0;
  uint32_t crc = 0;      // CRC32 of the payload bytes
  uint64_t offset = 0;   // absolute file offset of the payload
  uint64_t length = 0;   // payload bytes (unpadded)
};
static_assert(sizeof(SectionEntry) == 24, "section entry layout drifted");

/// kMeta payload: the store-level scalars. `flags` bit 0 marks a canonical
/// (Yannakakis-reduced) store — serve/ skips the snapshot re-reduction for
/// those.
struct MetaSection {
  double epsilon = 0.0;
  double savings_pct = 0.0;    // S
  double spurious_pct = 0.0;   // E
  double j_measure = 0.0;      // J
  uint64_t original_cells = 0;
  uint64_t num_projections = 0;
  uint32_t universe_width = 0;
  uint32_t flags = 0;
};
constexpr uint32_t kFlagCanonical = 1u << 0;
static_assert(sizeof(MetaSection) == 56, "meta layout drifted");

/// kProjTable payload: one entry per stored projection. `first_col`
/// indexes the kProjCols record array; the projection owns records
/// [first_col, first_col + num_cols).
struct ProjEntry {
  uint64_t attrs = 0;      // AttrSet mask
  uint64_t num_rows = 0;
  uint64_t first_col = 0;
  uint32_t num_cols = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(ProjEntry) == 32, "projection entry layout drifted");

/// kProjCols payload: one entry per stored column. `data_offset` is
/// relative to the kColumnData payload start and 8-aligned; the array
/// holds `num_rows` u32 codes of the owning projection.
struct ProjColEntry {
  uint32_t column = 0;       // original relation column index
  uint32_t domain = 0;       // domain size (codes are < domain)
  uint64_t data_offset = 0;  // into kColumnData, kSectionAlign-aligned
};
static_assert(sizeof(ProjColEntry) == 16, "column entry layout drifted");

/// CRC32 (IEEE reflected polynomial, slicing-by-8 tables) of `len` bytes.
uint32_t Crc32(const void* data, size_t len);

/// FNV-1a running hash; fold `value` into `hash` (seed with kFnvBasis).
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
inline uint64_t FnvMix64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xFF)) * kFnvPrime;
  }
  return hash;
}

/// The header fingerprint: version plus every entry's (kind, length, crc),
/// in table order. Writer stamps it; MappedStore recomputes and compares.
uint64_t Fingerprint(uint32_t version, const SectionEntry* entries,
                     size_t count);

/// CRC32 of a Header with its header_crc field zeroed.
uint32_t HeaderCrc(const Header& header);

/// `offset` rounded up to the next kSectionAlign boundary.
inline uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

}  // namespace store
}  // namespace maimon

#endif  // MAIMON_STORE_FORMAT_H_
