// Versatility demo: a different descriptor vocabulary with a custom scheme.
//
// The indexing layer is schema-agnostic: any semi-structured descriptor works
// as long as the scheme's covering relation holds (Section IV-C: "determining
// good decompositions for indexing each given descriptor type (articles,
// music files, movies, books) requires human input"). This example indexes a
// music catalog under artist / album / genre+year, adds short-circuit
// entries for chart-toppers, and demonstrates deletion with cascading index
// cleanup.
#include <cstdio>
#include <string>
#include <vector>

#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"

using namespace dhtidx;

namespace {

xml::Element track(const std::string& artist, const std::string& album,
                   const std::string& title, const std::string& genre, int year) {
  xml::Element t{"track"};
  t.add_child("artist", artist);
  t.add_child("album", album);
  t.add_child("title", title);
  t.add_child("genre", genre);
  t.add_child("year", std::to_string(year));
  return t;
}

}  // namespace

int main() {
  // Custom hierarchical scheme for music descriptors:
  //   artist -> artist+album -> MSD
  //   album  -> artist+album
  //   genre  -> genre+year -> MSD
  //   title  -> MSD                (flat path for title searches)
  const index::IndexingScheme music_scheme{
      "music",
      {
          {{"artist"}, {"artist", "album"}, false},
          {{"album"}, {"artist", "album"}, false},
          {{"artist", "album"}, {}, true},
          {{"genre"}, {"genre", "year"}, false},
          {{"genre", "year"}, {}, true},
          {{"title"}, {}, true},
      }};

  dht::Ring ring = dht::Ring::with_nodes(64);
  net::TrafficLedger traffic;
  storage::DhtStore storage{ring, traffic};
  index::IndexService index{ring, traffic};
  index::IndexBuilder builder{index, storage, music_scheme};

  const std::vector<xml::Element> tracks = {
      track("Miles Davis", "Kind of Blue", "So What", "jazz", 1959),
      track("Miles Davis", "Kind of Blue", "Blue in Green", "jazz", 1959),
      track("Miles Davis", "Bitches Brew", "Spanish Key", "fusion", 1970),
      track("John Coltrane", "Giant Steps", "Naima", "jazz", 1960),
      track("Nina Simone", "Pastel Blues", "Sinnerman", "jazz", 1965),
      track("Kraftwerk", "Autobahn", "Autobahn", "electronic", 1974),
  };
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    builder.index_file(tracks[i], "track-" + std::to_string(i) + ".flac", 40 * 1000 * 1000);
  }
  std::printf("Indexed %zu tracks with the custom '%s' scheme.\n\n", tracks.size(),
              builder.scheme().name().c_str());

  index::LookupEngine engine{index, storage, {index::CachePolicy::kSingle}};

  const auto davis = engine.search_all(query::Query::parse("/track[artist='Miles Davis']"));
  std::printf("Tracks by Miles Davis: %zu\n", davis.size());
  for (const auto& msd : davis) std::printf("  %s\n", std::string{msd.canonical()}.c_str());

  const auto jazz59 = engine.search_all(
      query::Query::parse("/track[genre=jazz][year=1959]"));
  std::printf("\nJazz recorded in 1959: %zu\n", jazz59.size());
  for (const auto& msd : jazz59) std::printf("  %s\n", std::string{msd.canonical()}.c_str());

  // Short-circuit a chart-topper: genre query jumps straight to the MSD.
  const query::Query sinnerman_msd = query::Query::most_specific(tracks[4]);
  builder.add_shortcircuit(query::Query::parse("/track/genre/jazz"), sinnerman_msd);
  const auto outcome =
      engine.resolve(query::Query::parse("/track/genre/jazz"), sinnerman_msd);
  std::printf("\n'Sinnerman' via genre query with a short-circuit entry: "
              "%d interactions.\n", outcome.interactions);

  // Deletion cascades: removing the only fusion track cleans the whole
  // genre=fusion index path, but shared jazz entries survive.
  const std::size_t removed = builder.remove_file(tracks[2]);
  std::printf("\nRemoved 'Spanish Key' (%zu index mappings cleaned up).\n", removed);
  std::printf("fusion tracks left: %zu\n",
              engine.search_all(query::Query::parse("/track/genre/fusion")).size());
  std::printf("Miles Davis tracks left: %zu\n",
              engine.search_all(query::Query::parse("/track[artist='Miles Davis']")).size());
  return 0;
}
