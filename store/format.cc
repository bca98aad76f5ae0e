// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "store/format.h"

#include <array>
#include <cstring>

namespace maimon {
namespace store {
namespace {

// IEEE CRC32 (reflected 0xEDB88320), the zlib/gzip polynomial, so store
// CRCs can be cross-checked with any standard tool. Slicing-by-8 tables:
// table[0] is the classic byte table, and table[k][b] is the CRC of byte b
// followed by k zero bytes, so eight bytes fold in with eight lookups and
// no loop-carried dependency between them. Section payloads are hashed on
// every cold start, so this sits on the mmap load path.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < table.size(); ++k) {
      const uint32_t prev = table[k - 1][i];
      table[k][i] = (prev >> 8) ^ table[0][prev & 0xFF];
    }
  }
  return table;
}

const CrcTables& CrcTable() {
  static const CrcTables table = MakeCrcTables();
  return table;
}

// Little-endian 32-bit read, independent of the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

std::string SectionKindName(uint32_t kind) {
  switch (kind) {
    case kMeta: return "meta";
    case kNames: return "names";
    case kSchema: return "schema";
    case kJoinTree: return "join_tree";
    case kMvds: return "mvds";
    case kProjTable: return "proj_table";
    case kProjCols: return "proj_cols";
    case kColumnData: return "column_data";
    default: return "kind " + std::to_string(kind);
  }
}

uint32_t Crc32(const void* data, size_t len) {
  const CrcTables& t = CrcTable();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Fingerprint(uint32_t version, const SectionEntry* entries,
                     size_t count) {
  uint64_t hash = FnvMix64(kFnvBasis, version);
  for (size_t i = 0; i < count; ++i) {
    hash = FnvMix64(hash, entries[i].kind);
    hash = FnvMix64(hash, entries[i].length);
    hash = FnvMix64(hash, entries[i].crc);
  }
  return hash;
}

uint32_t HeaderCrc(const Header& header) {
  Header copy;
  std::memcpy(&copy, &header, sizeof(Header));
  copy.header_crc = 0;
  return Crc32(&copy, sizeof(Header));
}

}  // namespace store
}  // namespace maimon
