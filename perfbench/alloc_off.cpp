// Stock-allocator stub for the untraced binary: no counting, so the
// end-to-end run measures the program as users build it.
#include "harness.hpp"

namespace perfbench {

bool alloc_counting() { return false; }

AllocCounts alloc_counts() { return {}; }

}  // namespace perfbench
