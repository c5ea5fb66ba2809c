//===- ParseFlag.cpp - Strict numeric command-line flag values -------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ParseFlag.h"

#include <cerrno>
#include <cstdlib>

bool ocelot::parseU64Flag(const std::string &Value, uint64_t &Out) {
  if (Value.empty() || Value[0] < '0' || Value[0] > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Value.c_str(), &End, 10);
  return End && *End == '\0' && errno == 0;
}
