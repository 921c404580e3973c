// libFuzzer harness for node-query evaluation: a page's HTML plus a
// node-query's wire bytes, evaluated in place over relations refilled from
// the parsed page and over the page's owned database, which must agree.
// Build with -DWEBDIS_FUZZ=ON under clang; see CONTRIBUTING.md "Fuzzing".
#include "fuzz/fuzz_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return webdis::fuzz::FuzzEval(data, size);
}
