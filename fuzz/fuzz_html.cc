// libFuzzer harness for the HTML parser: no crash, and every field of every
// parse equal to the reference pipeline's (tests/html_reference.h). Build
// with -DWEBDIS_FUZZ=ON under clang; see CONTRIBUTING.md "Fuzzing".
#include "fuzz/fuzz_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return webdis::fuzz::FuzzHtml(data, size);
}
