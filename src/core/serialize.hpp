// Fit persistence: save a FitResult to a small line-oriented text format and
// load it back (model reconstructed from the registry by name). Lets a
// monitoring job fit once and a reporting job predict later without refits,
// and gives the CLI --save/--load.
//
// Format (version header then one record per line):
//   prm-fit 1
//   model <registry-name>
//   holdout <n>
//   parameters <k> <p1> ... <pk>
//   series <name-with-no-newlines>
//   times <n> <t1> ... <tn>
//   values <n> <v1> ... <vn>
//   sse <value>
//   stop <reason-string>
#pragma once

#include <iosfwd>
#include <string>

#include "core/fitting.hpp"
#include "core/text_codec.hpp"

namespace prm::core {

/// Serialize (appending to `out`). The model must be registered (its name is
/// what gets stored); throws std::invalid_argument otherwise so a load can
/// always succeed.
void save_fit(std::string& out, const FitResult& fit);
void save_fit(std::ostream& out, const FitResult& fit);

/// Write to a file path; throws std::runtime_error on I/O failure.
void save_fit_file(const std::string& path, const FitResult& fit);

/// Deserialize one fit at the cursor (the cursor ends after its "stop" line);
/// throws std::runtime_error on malformed input or unknown model names.
FitResult load_fit(TextReader& in);
FitResult load_fit(std::istream& in);  ///< Parses the rest of the stream.

FitResult load_fit_file(const std::string& path);

}  // namespace prm::core
