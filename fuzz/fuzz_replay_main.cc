// Plain (no fuzzer runtime) driver for the checked-in corpus: replays every
// input under <corpus>/{wire,wal,snapshot,html}/ through the matching fuzz
// dispatcher. Runs as the `fuzz_replay_test` ctest target, so tier-1 and
// the ASan CI job exercise every golden-frame seed and every hardening
// regression input on each build — a decoder crash or round-trip fixpoint
// violation aborts and fails the test.
//
// Usage:
//   fuzz_replay <corpus_root>            replay the corpus
//   fuzz_replay --write-seeds <root>     (re)generate the seed + regression
//                                        corpus (see fuzz_util.h)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"

namespace {

bool ReadFile(const std::filesystem::path& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

int ReplayDir(const std::filesystem::path& dir,
              int (*dispatch)(const uint8_t*, size_t)) {
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "fuzz_replay: missing corpus dir %s\n",
                 dir.string().c_str());
    return -1;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // deterministic replay order
  for (const auto& path : files) {
    std::vector<uint8_t> bytes;
    if (!ReadFile(path, &bytes)) {
      std::fprintf(stderr, "fuzz_replay: cannot read %s\n",
                   path.string().c_str());
      return -1;
    }
    std::fprintf(stderr, "fuzz_replay: %s (%zu bytes)\n",
                 path.string().c_str(), bytes.size());
    (void)dispatch(bytes.data(), bytes.size());  // aborts on a finding
  }
  return static_cast<int>(files.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--write-seeds") == 0) {
    const int written = webdis::fuzz::WriteSeedCorpus(argv[2]);
    if (written < 0) {
      std::fprintf(stderr, "fuzz_replay: seed generation failed\n");
      return 1;
    }
    std::printf("fuzz_replay: wrote %d corpus files under %s\n", written,
                argv[2]);
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: fuzz_replay <corpus_root> | "
                 "fuzz_replay --write-seeds <root>\n");
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const int wire = ReplayDir(root / "wire", webdis::fuzz::FuzzWireFrame);
  const int wal = ReplayDir(root / "wal", webdis::fuzz::FuzzWalStream);
  const int snapshot = ReplayDir(root / "snapshot", webdis::fuzz::FuzzSnapshot);
  const int html = ReplayDir(root / "html", webdis::fuzz::FuzzHtml);
  if (wire < 0 || wal < 0 || snapshot < 0 || html < 0) return 1;
  if (wire + wal + snapshot + html == 0) {
    std::fprintf(stderr, "fuzz_replay: empty corpus at %s\n", argv[1]);
    return 1;  // a vanished corpus must not read as a green run
  }
  std::printf(
      "fuzz_replay: %d wire, %d wal, %d snapshot, %d html inputs replayed\n",
      wire, wal, snapshot, html);
  return 0;
}
