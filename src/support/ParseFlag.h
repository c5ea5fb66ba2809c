//===- ParseFlag.h - Strict numeric command-line flag values ----*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser every CLI uses for unsigned flag values (`--run=`,
/// `--seed=`, `--tau=`, `--seeds=`, `--energy=` fields, ...).
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_SUPPORT_PARSEFLAG_H
#define OCELOT_SUPPORT_PARSEFLAG_H

#include <cstdint>
#include <string>

namespace ocelot {

/// Parses all of \p Value as a decimal uint64: no sign, no whitespace, no
/// trailing characters, no overflow. A leading '-' is rejected rather than
/// wrapped modulo 2^64 the way strtoull would.
bool parseU64Flag(const std::string &Value, uint64_t &Out);

} // namespace ocelot

#endif // OCELOT_SUPPORT_PARSEFLAG_H
