// engines.hpp — registration hook for the built-in evaluation engines.
//
// The five adapters themselves are implementation details of engines.cpp;
// callers reach them by id through the registry (engine/registry.hpp).
// Registry::instance() calls register_builtin_engines once on first use, so
// only tests building private registries need this header.
#pragma once

#include "engine/registry.hpp"

namespace ddm::engine {

/// Registers the built-in engines (batch, certified, compiled, exact, mc) on
/// `registry`. Throws ddm::Error if any id is already taken.
void register_builtin_engines(Registry& registry);

}  // namespace ddm::engine
