#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "common/strings.h"
#include "web/fileweb.h"
#include "web/graph.h"
#include "web/index.h"
#include "web/pagegen.h"
#include "web/synth.h"
#include "web/topologies.h"

namespace webdis::web {
namespace {

// -- WebGraph -------------------------------------------------------------------

TEST(WebGraphTest, AddAndFind) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/x", "<title>T</title>body").ok());
  const WebGraph::Document* doc = web.Find("http://a/x");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->parsed.title, "T");
  EXPECT_TRUE(web.Has("http://a/x"));
  EXPECT_FALSE(web.Has("http://a/other"));
  EXPECT_EQ(web.num_documents(), 1u);
}

TEST(WebGraphTest, FragmentIgnoredInLookup) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/x", "body").ok());
  EXPECT_TRUE(web.Has("http://a/x#section"));
}

TEST(WebGraphTest, NonCanonicalSpellingsFindSameDocument) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://h/a", "<title>A</title>").ok());
  const WebGraph::Document* doc = web.Find("http://h/a");
  ASSERT_NE(doc, nullptr);
  for (const char* spelling : {"h/a", "http://h/./a#x", "http://h//a",
                               "http://h/b/../a", " http://h/a "}) {
    EXPECT_EQ(web.Find(spelling), doc) << spelling;
    EXPECT_TRUE(web.Has(spelling)) << spelling;
  }
  EXPECT_EQ(web.Find("http://h/a/"), nullptr);
  EXPECT_EQ(web.Find("http://h/"), nullptr);
}

TEST(WebGraphTest, NonCanonicalSpellingMaterializesLazyDocumentOnce) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view key, uint64_t, uint64_t) {
    return "<title>" + std::string(key) + "</title>";
  });
  ASSERT_TRUE(web.AddLazyDocument("http://h/d/x", 0, 0).ok());
  const WebGraph::Document* doc = web.Find("h/d/../d/./x#top");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->parsed.title, "http://h/d/x");
  EXPECT_EQ(web.Find("http://h/d/x"), doc);
  EXPECT_EQ(web.num_materialized(), 1u);
}

TEST(WebGraphTest, DuplicateRejected) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/x", "one").ok());
  EXPECT_FALSE(web.AddDocument("http://a/x", "two").ok());
}

TEST(WebGraphTest, BadUrlRejected) {
  WebGraph web;
  EXPECT_FALSE(web.AddDocument("", "x").ok());
}

TEST(WebGraphTest, HostsAndUrls) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://b/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "x").ok());
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(web.UrlsOnHost("a"),
            (std::vector<std::string>{"http://a/1", "http://a/2"}));
  EXPECT_EQ(web.AllUrls().size(), 3u);
  EXPECT_EQ(web.TotalHtmlBytes(), 3u);
}

// -- Per-host secondary index ---------------------------------------------------

TEST(WebGraphTest, PerHostIndexTracksRemovals) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://b/1", "x").ok());
  ASSERT_TRUE(web.RemoveDocument("http://a/1").ok());
  EXPECT_EQ(web.UrlsOnHost("a"), (std::vector<std::string>{"http://a/2"}));
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"a", "b"}));
  // Removing a host's last document drops the host from the index.
  ASSERT_TRUE(web.RemoveDocument("http://a/2").ok());
  EXPECT_TRUE(web.UrlsOnHost("a").empty());
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"b"}));
  EXPECT_EQ(web.num_documents(), 1u);
}

TEST(WebGraphTest, PerHostIndexTracksRetirement) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://b/1", "x").ok());
  ASSERT_TRUE(web.RetireHost("a").ok());
  EXPECT_TRUE(web.HostRetired("a"));
  EXPECT_FALSE(web.HostRetired("b"));
  EXPECT_TRUE(web.UrlsOnHost("a").empty());
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"b"}));
  EXPECT_FALSE(web.Has("http://a/1"));
  EXPECT_EQ(web.num_documents(), 1u);
  // Retiring an already-retired host is idempotent; an unknown host fails.
  EXPECT_TRUE(web.RetireHost("a").ok());
  EXPECT_FALSE(web.RetireHost("never-existed").ok());
}

TEST(WebGraphTest, UrlsOnHostUnknownHostIsEmpty) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  EXPECT_TRUE(web.UrlsOnHost("zz").empty());
}

// -- Lazy materialization -------------------------------------------------------

TEST(WebGraphTest, LazyDocumentMaterializesOnFirstFind) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view key, uint64_t aux0, uint64_t) {
    return "<title>doc " + std::to_string(aux0) + "</title>" +
           std::string(key);
  });
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 41, 0).ok());
  ASSERT_TRUE(web.AddLazyDocument("http://a/2", 42, 0).ok());
  EXPECT_EQ(web.num_documents(), 2u);
  EXPECT_EQ(web.num_materialized(), 0u);
  // Has() and the index paths never materialize.
  EXPECT_TRUE(web.Has("http://a/1"));
  EXPECT_EQ(web.UrlsOnHost("a").size(), 2u);
  EXPECT_EQ(web.num_materialized(), 0u);

  const WebGraph::Document* doc = web.Find("http://a/1");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->parsed.title, "doc 41");
  EXPECT_EQ(doc->version, 1u);
  EXPECT_EQ(web.num_materialized(), 1u);
  // Memoized: a second Find returns the same object, no recount.
  EXPECT_EQ(web.Find("http://a/1"), doc);
  EXPECT_EQ(web.num_materialized(), 1u);
  EXPECT_EQ(web.num_documents(), 2u);
}

TEST(WebGraphTest, UpdateOfLazyDocumentMaterializesAndBumpsVersion) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view, uint64_t, uint64_t) {
    return std::string("<title>v1</title>");
  });
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 0, 0).ok());
  // Update before any Find: the document materializes (version 1), then
  // mutates — exactly the version the §9 result cache would key on.
  ASSERT_TRUE(web.UpdateDocument("http://a/1", "<title>v2</title>").ok());
  const WebGraph::Document* doc = web.Find("http://a/1");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->version, 2u);
  EXPECT_EQ(doc->parsed.title, "v2");
  EXPECT_EQ(web.num_materialized(), 1u);
}

TEST(WebGraphTest, HistoryCoversLazyDocuments) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view, uint64_t, uint64_t) {
    return std::string("<title>gen</title>");
  });
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 0, 0).ok());
  web.EnableHistory();  // materializes so version-1 bodies are recorded
  EXPECT_EQ(web.num_materialized(), 1u);
  ASSERT_TRUE(web.UpdateDocument("http://a/1", "<title>edit</title>").ok());
  const std::string* v1 = web.HistoricalHtml("http://a/1", 1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(*v1, "<title>gen</title>");
  const std::string* v2 = web.HistoricalHtml("http://a/1", 2);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(*v2, "<title>edit</title>");
}

TEST(WebGraphTest, ApproxTableBytesExcludesBodies) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view, uint64_t, uint64_t) {
    return std::string(64 * 1024, 'x');  // big bodies, tiny table
  });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        web.AddLazyDocument("http://h/" + std::to_string(i), 0, 0).ok());
  }
  const size_t at_rest = web.ApproxTableBytes();
  EXPECT_GT(at_rest, 0u);
  ASSERT_NE(web.Find("http://h/7"), nullptr);
  // Materializing a 64 KB body must not move the *table* footprint.
  EXPECT_EQ(web.ApproxTableBytes(), at_rest);
}

// -- Page generator --------------------------------------------------------------

TEST(PageGenTest, RenderedPageParsesBack) {
  PageSpec spec;
  spec.title = "A & B Lab";
  spec.paragraphs = {"First paragraph."};
  spec.sections = {{"Heading", "Section body"}};
  spec.links = {{"/people", "People"}, {"http://other/", "Other"}};
  spec.hr_blocks = {"CONVENER Someone"};
  spec.bold_notes = {"note"};
  const std::string html = RenderHtml(spec);
  const html::ParsedDocument doc =
      html::ParseDocument(html::ParseUrl("http://h/p").value(), html);
  EXPECT_EQ(doc.title, "A & B Lab");
  ASSERT_EQ(doc.anchors.size(), 2u);
  EXPECT_EQ(doc.anchors[0].ltype, html::LinkType::kLocal);
  EXPECT_EQ(doc.anchors[1].ltype, html::LinkType::kGlobal);
  bool convener_in_hr = false;
  for (const html::ParsedRelInfon& r : doc.rel_infons) {
    if (r.delimiter == "hr" && r.text == "CONVENER Someone") {
      convener_in_hr = true;
    }
  }
  EXPECT_TRUE(convener_in_hr);
}

TEST(PageGenTest, RenderHtmlGoldenBytes) {
  // Every field filled, all four escaped characters, and an href with '&'
  // (hrefs are written raw): the exact bytes every page parse starts from.
  PageSpec spec;
  spec.title = "Labs & \"Groups\"";
  spec.paragraphs = {"a < b", "plain"};
  spec.sections = {{"H > 1", "body & more"}};
  spec.bold_notes = {"note \"q\""};
  spec.hr_blocks = {"CONVENER <Someone>", "MEMBERS"};
  spec.links = {{"/a&b", "People & <Staff>"}, {"http://other/", "Other"}};
  EXPECT_EQ(RenderHtml(spec),
            R"html(<!DOCTYPE HTML PUBLIC "-//IETF//DTD HTML 2.0//EN">
<html>
<head>
<title>Labs &amp; &quot;Groups&quot;</title>
</head>
<body>
<h1>Labs &amp; &quot;Groups&quot;</h1>
<p>a &lt; b</p>
<p>plain</p>
<h2>H &gt; 1</h2>
<p>body &amp; more</p>
<b>note &quot;q&quot;</b>
<hr>
CONVENER &lt;Someone&gt;
<hr>
MEMBERS
<hr>
<ul>
<li><a href="/a&b">People &amp; &lt;Staff&gt;</a></li>
<li><a href="http://other/">Other</a></li>
</ul>
</body>
</html>
)html");
  // An empty spec keeps only the skeleton.
  EXPECT_EQ(RenderHtml(PageSpec()),
            "<!DOCTYPE HTML PUBLIC \"-//IETF//DTD HTML 2.0//EN\">\n"
            "<html>\n<head>\n<title></title>\n</head>\n<body>\n<h1></h1>\n"
            "</body>\n</html>\n");
}

// -- Synthetic web -----------------------------------------------------------------

TEST(SynthWebTest, DeterministicForSeed) {
  SynthWebOptions options;
  options.seed = 5;
  options.num_sites = 3;
  options.docs_per_site = 4;
  WebGraph a = GenerateSynthWeb(options);
  WebGraph b = GenerateSynthWeb(options);
  ASSERT_EQ(a.AllUrls(), b.AllUrls());
  for (const std::string& url : a.AllUrls()) {
    EXPECT_EQ(a.Find(url)->raw_html, b.Find(url)->raw_html);
  }
}

TEST(SynthWebTest, LazyPagesMatchEagerByteForByte) {
  // The lazy representation is purely a memory optimization: generating the
  // same web with lazy_pages on must produce byte-identical HTML for every
  // document once fetched — first-fetch replay re-runs the exact RNG draws
  // the eager build made.
  SynthWebOptions options;
  options.seed = 11;
  options.num_sites = 4;
  options.docs_per_site = 7;
  options.title_keyword_prob = 0.3;
  options.body_keyword_prob = 0.2;
  const WebGraph eager = GenerateSynthWeb(options);
  options.lazy_pages = true;
  const WebGraph lazy = GenerateSynthWeb(options);
  ASSERT_EQ(lazy.AllUrls(), eager.AllUrls());
  EXPECT_EQ(lazy.num_materialized(), 0u);
  // Fetch in an order unrelated to generation order: per-document captured
  // RNG states make replay order-independent.
  std::vector<std::string> urls = eager.AllUrls();
  for (size_t i = urls.size(); i-- > 0;) {
    const WebGraph::Document* e = eager.Find(urls[i]);
    const WebGraph::Document* l = lazy.Find(urls[i]);
    ASSERT_NE(l, nullptr) << urls[i];
    EXPECT_EQ(l->raw_html, e->raw_html) << urls[i];
    EXPECT_EQ(l->parsed.title, e->parsed.title) << urls[i];
  }
  EXPECT_EQ(lazy.num_materialized(), urls.size());
}

TEST(SynthWebTest, ConcurrentFirstFindsPublishOneParse) {
  // The parallel stepper's partitions race to materialize the same lazy
  // documents: every thread must get the one published Document per key,
  // parsed exactly as an eager build parses it.
  SynthWebOptions options;
  options.seed = 3;
  options.num_sites = 4;
  options.docs_per_site = 8;
  const WebGraph eager = GenerateSynthWeb(options);
  options.lazy_pages = true;
  const WebGraph lazy = GenerateSynthWeb(options);
  const std::vector<std::string> urls = lazy.AllUrls();
  std::vector<std::vector<const WebGraph::Document*>> seen(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&lazy, &urls, &found = seen[t]] {
      for (const std::string& url : urls) found.push_back(lazy.Find(url));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < seen.size(); ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(lazy.num_materialized(), urls.size());
  for (size_t i = 0; i < urls.size(); ++i) {
    const html::ParsedDocument& got = seen[0][i]->parsed;
    const html::ParsedDocument& want = eager.Find(urls[i])->parsed;
    EXPECT_EQ(got.text, want.text) << urls[i];
    ASSERT_EQ(got.rel_infons.size(), want.rel_infons.size()) << urls[i];
    ASSERT_EQ(got.anchors.size(), want.anchors.size()) << urls[i];
  }
}

TEST(SynthWebTest, ShapeMatchesOptions) {
  SynthWebOptions options;
  options.num_sites = 4;
  options.docs_per_site = 6;
  options.local_links_per_doc = 2;
  options.global_links_per_doc = 1;
  WebGraph web = GenerateSynthWeb(options);
  EXPECT_EQ(web.num_documents(), 24u);
  EXPECT_EQ(web.Hosts().size(), 4u);
  for (const std::string& url : web.AllUrls()) {
    const WebGraph::Document* doc = web.Find(url);
    int local = 0, global = 0;
    for (const html::ParsedAnchor& a : doc->parsed.anchors) {
      if (a.ltype == html::LinkType::kLocal) ++local;
      if (a.ltype == html::LinkType::kGlobal) ++global;
      // Every link must resolve to an existing document.
      EXPECT_TRUE(web.Has(a.resolved.ResourceKey()))
          << a.resolved.ToString();
    }
    EXPECT_EQ(local, 2) << url;
    EXPECT_EQ(global, 1) << url;
  }
}

TEST(SynthWebTest, KeywordProbabilitiesHonored) {
  SynthWebOptions options;
  options.num_sites = 10;
  options.docs_per_site = 30;
  options.title_keyword_prob = 0.5;
  options.body_keyword_prob = 0.0;
  WebGraph web = GenerateSynthWeb(options);
  int title_hits = 0, body_hits = 0;
  for (const std::string& url : web.AllUrls()) {
    const WebGraph::Document* doc = web.Find(url);
    if (doc->parsed.title.find(kTitleKeyword) != std::string::npos) {
      ++title_hits;
    }
    for (const html::ParsedRelInfon& r : doc->parsed.rel_infons) {
      if (r.delimiter == "hr" &&
          r.text.find(kBodyKeyword) != std::string::npos) {
        ++body_hits;
      }
    }
  }
  EXPECT_GT(title_hits, 100);  // ~150 of 300
  EXPECT_LT(title_hits, 200);
  EXPECT_EQ(body_hits, 0);
}

// -- Topologies -------------------------------------------------------------------

TEST(TopologyTest, Fig1ShapeIsSane) {
  Scenario s = BuildFig1Scenario();
  EXPECT_EQ(s.web.num_documents(), 8u);
  // Node 1 has two global links; node 7 links back to node 1.
  const WebGraph::Document* n1 = s.web.Find("http://site1.example/node1");
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->parsed.anchors.size(), 2u);
  for (const html::ParsedAnchor& a : n1->parsed.anchors) {
    EXPECT_EQ(a.ltype, html::LinkType::kGlobal);
  }
}

TEST(TopologyTest, Fig5Node4HasThreeFanouts) {
  Scenario s = BuildFig5Scenario();
  const WebGraph::Document* n4 = s.web.Find("http://site4.example/node4");
  ASSERT_NE(n4, nullptr);
  EXPECT_EQ(n4->parsed.anchors.size(), 3u);
}

TEST(TopologyTest, CampusWebHasFigure8Pages) {
  CampusScenario s = BuildCampusScenario();
  EXPECT_TRUE(s.web.Has("http://www.csa.iisc.ernet.in/Labs"));
  for (const auto& [url, name] : s.expected_conveners) {
    const WebGraph::Document* doc = s.web.Find(url);
    ASSERT_NE(doc, nullptr) << url;
    bool found = false;
    for (const html::ParsedRelInfon& r : doc->parsed.rel_infons) {
      if (r.delimiter == "hr" && r.text.find(name) != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << url << " missing convener " << name;
  }
}

TEST(TopologyTest, CampusLabsPageTitleMatchesQ1) {
  CampusScenario s = BuildCampusScenario();
  const WebGraph::Document* labs =
      s.web.Find("http://www.csa.iisc.ernet.in/Labs");
  ASSERT_NE(labs, nullptr);
  EXPECT_NE(webdis::ToLower(labs->parsed.title).find("lab"), std::string::npos);
}

// -- Search index -------------------------------------------------------------------

TEST(SearchIndexTest, LooksUpTitleAndBodyWords) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1",
                              "<title>Alpha Report</title>delta words")
                  .ok());
  ASSERT_TRUE(
      web.AddDocument("http://a/2", "<title>Other</title>alpha body").ok());
  SearchIndex index(web);
  EXPECT_EQ(index.Lookup("alpha"),
            (std::vector<std::string>{"http://a/1", "http://a/2"}));
  EXPECT_EQ(index.Lookup("ALPHA").size(), 2u);  // case folded
  EXPECT_EQ(index.Lookup("delta"), (std::vector<std::string>{"http://a/1"}));
  EXPECT_TRUE(index.Lookup("absent").empty());
}

TEST(SearchIndexTest, ConjunctiveLookup) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "alpha beta").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "alpha gamma").ok());
  SearchIndex index(web);
  EXPECT_EQ(index.LookupAll({"alpha", "beta"}),
            (std::vector<std::string>{"http://a/1"}));
  EXPECT_TRUE(index.LookupAll({"alpha", "absent"}).empty());
  EXPECT_TRUE(index.LookupAll({}).empty());
}

// -- File-backed web loader ----------------------------------------------------

class FileWebTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case (and per-process) directory: ctest registers each case
    // individually, so under `ctest -j` two FileWebTest processes can run
    // concurrently — a shared path would let one TearDown delete the other's
    // fixture mid-test.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = std::filesystem::temp_directory_path() /
            ("webdis_fileweb_test_" + std::string(info->name()) + "_" +
             std::to_string(static_cast<long>(::getpid())));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void Write(const std::string& relative, const std::string& contents) {
    const std::filesystem::path path = root_ / relative;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }

  std::filesystem::path root_;
};

TEST_F(FileWebTest, LoadsHtmlTreeWithIndexMapping) {
  Write("host.example/index.html", "<title>Home</title>");
  Write("host.example/sub/page.html", "<title>Page</title>");
  Write("host.example/sub/index.html", "<title>Sub Home</title>");
  Write("host.example/skip.txt", "not html");
  Write("other.example/a.htm", "<title>A</title>");
  WebGraph web;
  auto stats = LoadWebFromDirectory(root_.string(), &web);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->documents_loaded, 4u);
  EXPECT_EQ(stats->hosts, 2u);
  EXPECT_EQ(stats->files_skipped, 1u);
  EXPECT_TRUE(web.Has("http://host.example/"));
  EXPECT_TRUE(web.Has("http://host.example/sub/page.html"));
  EXPECT_TRUE(web.Has("http://host.example/sub/"));
  EXPECT_TRUE(web.Has("http://other.example/a.htm"));
  EXPECT_EQ(web.Find("http://host.example/")->parsed.title, "Home");
}

TEST_F(FileWebTest, RelativeLinksResolveAgainstDerivedUrls) {
  Write("h.example/index.html", "<a href=\"sub/leaf.html\">x</a>");
  Write("h.example/sub/leaf.html", "<a href=\"../index.html\">up</a>");
  WebGraph web;
  auto stats = LoadWebFromDirectory(root_.string(), &web);
  ASSERT_TRUE(stats.ok());
  const WebGraph::Document* home = web.Find("http://h.example/");
  ASSERT_NE(home, nullptr);
  ASSERT_EQ(home->parsed.anchors.size(), 1u);
  EXPECT_EQ(home->parsed.anchors[0].resolved.ToString(),
            "http://h.example/sub/leaf.html");
  EXPECT_EQ(home->parsed.anchors[0].ltype, html::LinkType::kLocal);
}

TEST_F(FileWebTest, SaveLoadRoundTripsASynthWeb) {
  SynthWebOptions options;
  options.seed = 6;
  options.num_sites = 3;
  options.docs_per_site = 5;
  const WebGraph original = GenerateSynthWeb(options);
  auto written = SaveWebToDirectory(original, root_.string());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value(), original.num_documents());
  WebGraph reloaded;
  auto stats = LoadWebFromDirectory(root_.string(), &reloaded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(reloaded.AllUrls(), original.AllUrls());
  for (const std::string& url : original.AllUrls()) {
    EXPECT_EQ(reloaded.Find(url)->raw_html, original.Find(url)->raw_html)
        << url;
  }
}

TEST_F(FileWebTest, SaveRejectsFileDirectoryConflicts) {
  // "/lab" is both a document and the prefix of "/lab/projects" — no
  // faithful filesystem image exists.
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://h/lab", "a").ok());
  ASSERT_TRUE(web.AddDocument("http://h/lab/projects", "b").ok());
  EXPECT_EQ(SaveWebToDirectory(web, root_.string()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FileWebTest, MissingDirectoryFails) {
  WebGraph web;
  EXPECT_EQ(LoadWebFromDirectory((root_ / "nope").string(), &web)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(FileWebTest, EmptyTreeFails) {
  std::filesystem::create_directories(root_ / "host.example");
  WebGraph web;
  EXPECT_EQ(LoadWebFromDirectory(root_.string(), &web).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace webdis::web
