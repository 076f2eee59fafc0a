#include "esse/subspace_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "ocean/state_io.hpp"

namespace essex::esse {

namespace {

using ocean::esxf::kKindSubspace;
using ocean::esxf::kMagic;
using ocean::esxf::kVersion;

void write_u32(std::ostream& f, std::uint32_t v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& f, std::uint64_t v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

// A file cut off mid-header must surface as the truncation error right
// at the short read. Reading into a zero-initialised value and carrying
// on would hand later checks garbage — a header that happens to decode
// as dim=0 reads as "corrupt", but one that decodes plausibly would
// sail through to a misleading failure (or none at all).
std::uint32_t read_u32(std::istream& f, const std::string& name) {
  std::uint32_t v = 0;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!f) throw Error("truncated product file: " + name);
  return v;
}

std::uint64_t read_u64(std::istream& f, const std::string& name) {
  std::uint64_t v = 0;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!f) throw Error("truncated product file: " + name);
  return v;
}

}  // namespace

void save_subspace(std::ostream& out, const ErrorSubspace& subspace) {
  ESSEX_REQUIRE(!subspace.empty(), "cannot save an empty subspace");
  out.write(kMagic, 4);
  write_u32(out, kVersion);
  write_u32(out, kKindSubspace);
  write_u64(out, subspace.dim());
  write_u64(out, subspace.rank());
  out.write(reinterpret_cast<const char*>(subspace.sigmas().data()),
            static_cast<std::streamsize>(subspace.rank() * sizeof(double)));
  out.write(reinterpret_cast<const char*>(subspace.modes().data().data()),
            static_cast<std::streamsize>(subspace.modes().data().size() *
                                         sizeof(double)));
}

void save_subspace(const std::string& path, const ErrorSubspace& subspace) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("cannot open for writing: " + path);
  save_subspace(f, subspace);
  if (!f) throw Error("failed writing: " + path);
}

ErrorSubspace load_subspace(std::istream& f, const std::string& name) {
  char magic[4];
  f.read(magic, 4);
  if (!f || std::memcmp(magic, kMagic, 4) != 0) {
    throw Error("not an ESSEX product file: " + name);
  }
  if (read_u32(f, name) != kVersion) {
    throw Error("unsupported product version in " + name);
  }
  if (read_u32(f, name) != kKindSubspace) {
    throw Error("wrong product kind in " + name);
  }
  const std::uint64_t dim = read_u64(f, name);
  const std::uint64_t rank = read_u64(f, name);
  // A forged header must fail before anything is allocated: the payload
  // (rank sigmas plus dim × rank modes) is sized with checked arithmetic
  // and must fit in the bytes left, when the stream can seek.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (dim == 0 || rank == 0 || rank > dim || dim > kMax / rank ||
      dim * rank > kMax / sizeof(double) - rank) {
    throw Error("corrupt subspace header in " + name);
  }
  if (const std::streampos here = f.tellg(); here >= 0) {
    f.seekg(0, std::ios::end);
    const std::streamoff left = f.tellg() - here;
    f.seekg(here);
    const std::uint64_t payload = (dim * rank + rank) * sizeof(double);
    if (!f || left < 0 || static_cast<std::uint64_t>(left) < payload) {
      throw Error("truncated product file: " + name);
    }
  }
  la::Vector sigmas(rank);
  f.read(reinterpret_cast<char*>(sigmas.data()),
         static_cast<std::streamsize>(rank * sizeof(double)));
  la::Matrix modes(dim, rank);
  f.read(reinterpret_cast<char*>(modes.data().data()),
         static_cast<std::streamsize>(modes.data().size() * sizeof(double)));
  if (!f) throw Error("truncated product file: " + name);
  return ErrorSubspace(std::move(modes), std::move(sigmas));
}

ErrorSubspace load_subspace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw Error("cannot open for reading: " + path);
  return load_subspace(f, path);
}

}  // namespace essex::esse
