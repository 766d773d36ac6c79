// Alias kept for perfbench/, which names the JSON value as
// bsr::serve::Json. Everything else includes util/json.h directly.
#pragma once

#include "util/json.h"

namespace bsr::serve {
using Json = bsr::Json;
}  // namespace bsr::serve
