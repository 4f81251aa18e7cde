// Heap footprint of interned queries.
//
// Interns every query the build of the smoke `stream_flat` world interns
// (perfbench's 200-node, 2,000-article flat world: each article's MSD and
// every mapping source and target) into a fresh QueryInterner and reads the
// glibc heap in use before and after. An interned query is one buffer plus
// an 8-byte arena slot and its share of the probe table; the bound keeps it
// there. Needs glibc's mallinfo2, and a heap the sanitizers do not replace.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <vector>

#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define DHTIDX_HAVE_MALLINFO2 1
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#undef DHTIDX_HAVE_MALLINFO2
#endif

#include "biblio/stream.hpp"
#include "index/scheme.hpp"
#include "query/interner.hpp"

namespace dhtidx::query {
namespace {

constexpr std::size_t kMaxBytesPerInternedQuery = 250;

TEST(QueryFootprint, InternedStreamFlatQueriesFitTheBudget) {
#ifndef DHTIDX_HAVE_MALLINFO2
  GTEST_SKIP() << "needs glibc's mallinfo2 on an unsanitized heap";
#else
  biblio::CorpusConfig corpus;
  corpus.articles = 2000;
  corpus.authors = 560;
  corpus.conferences = 60;
  corpus.seed = 112;
  const biblio::ArticleStream stream{corpus};
  const index::IndexingScheme scheme = index::IndexingScheme::make(index::SchemeKind::kFlat);

  QueryInterner interner;
  const std::size_t before = mallinfo2().uordblks;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Query msd = stream.article(i).msd();
    interner.intern(msd);
    for (index::Mapping& m : scheme.mappings_for(msd)) {
      interner.intern(std::move(m.source));
      interner.intern(std::move(m.target));
    }
  }
  const std::size_t after = mallinfo2().uordblks;

  ASSERT_GT(interner.size(), stream.size());
  const double per_query =
      static_cast<double>(after - before) / static_cast<double>(interner.size());
  std::printf("%zu interned queries, %.1f B of heap each\n", interner.size(), per_query);
  EXPECT_LE(per_query, kMaxBytesPerInternedQuery)
      << interner.size() << " interned queries hold " << (after - before) << " B of heap";
#endif
}

}  // namespace
}  // namespace dhtidx::query
