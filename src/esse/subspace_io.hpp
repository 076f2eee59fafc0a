// ESSEX: error-subspace product files (the workflow's "covariance
// file"). Same ESXF container as ocean/state_io.hpp; see that header for
// the format rationale.
#pragma once

#include <iosfwd>
#include <string>

#include "esse/error_subspace.hpp"

namespace essex::esse {

/// Write an error subspace (modes + sigmas). Overwrites.
/// Throws essex::Error on I/O failure.
void save_subspace(const std::string& path, const ErrorSubspace& subspace);

/// Stream variant: append the ESXF subspace record to `out`. The byte
/// layout is identical to the file variant, so in-memory serializations
/// (the determinism digests of DESIGN.md §10) and on-disk products hash
/// the same.
void save_subspace(std::ostream& out, const ErrorSubspace& subspace);

/// Read a subspace saved by save_subspace().
ErrorSubspace load_subspace(const std::string& path);

/// Stream variant; `name` labels the source in error messages. Header
/// sizes are bounded by the bytes left only on a stream that can seek.
ErrorSubspace load_subspace(std::istream& in,
                            const std::string& name = "<stream>");

}  // namespace essex::esse
