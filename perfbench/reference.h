// The reference kernel: a fixed piece of simulator-like work, timed after
// every group of the timed run. See reference.cpp.
#pragma once

#include "common.h"

namespace perfbench {

/// Host milliseconds for `threads` threads (the calling one among them)
/// to run 2 x `threads` chunks of the reference kernel between them.
double reference_ms(int threads);

}  // namespace perfbench
