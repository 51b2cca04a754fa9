#pragma once

#include <string>

#include "core/config.hpp"

namespace ca::core {

/// Parse the textual form of the Listing-1 configuration dict:
///
///   "data=2 pipeline=2 tensor.size=4 tensor.mode=2d tensor.depth=2"
///
/// Whitespace-separated key=value pairs; keys and their aliases are the knob
/// table's (`parallel.tensor.size` etc. may drop the `parallel.` prefix). An
/// empty value leaves the field unset. Unknown keys throw
/// std::invalid_argument and malformed values knobs::KnobError — the
/// user-friendliness contract: configuration is data, errors are loud and
/// early. The parsed Config is validate()d before returning.
Config parse_config(const std::string& text);

}  // namespace ca::core
