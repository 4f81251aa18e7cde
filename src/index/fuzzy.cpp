#include "index/fuzzy.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace dhtidx::index {

std::size_t edit_distance(std::string_view a, std::string_view b, std::size_t cap) {
  if (a.size() > b.size()) std::swap(a, b);
  // The distance never exceeds the longer length; clamping keeps cap + 1
  // from overflowing when callers pass SIZE_MAX for "no cap".
  cap = std::min(cap, b.size());
  if (b.size() - a.size() > cap) return cap + 1;

  std::vector<std::size_t> prev(a.size() + 1);
  std::vector<std::size_t> curr(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) prev[i] = i;

  for (std::size_t j = 1; j <= b.size(); ++j) {
    curr[0] = j;
    std::size_t row_min = curr[0];
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t substitution = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, substitution});
      row_min = std::min(row_min, curr[i]);
    }
    if (row_min > cap) return cap + 1;  // the distance can only grow
    std::swap(prev, curr);
  }
  return std::min(prev[a.size()], cap + 1);
}

std::vector<std::string> FieldDictionary::trigrams_of(std::string_view value) {
  // Pad so short values still produce grams; lowercase for robustness.
  std::string padded = "^^" + to_lower(value) + "$$";
  std::vector<std::string> grams;
  grams.reserve(padded.size() - 2);
  for (std::size_t i = 0; i + 3 <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, 3));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

void FieldDictionary::add(const std::string& field_path, std::string_view value) {
  if (value.empty()) return;
  FieldIndex& field = fields_[field_path];
  if (!field.present.insert(std::string{value}).second) return;
  const auto id = static_cast<std::uint32_t>(field.values.size());
  field.values.emplace_back(value);
  for (const std::string& gram : trigrams_of(value)) {
    field.trigrams[gram].push_back(id);
  }
}

bool FieldDictionary::known(const std::string& field_path, std::string_view value) const {
  const auto it = fields_.find(field_path);
  return it != fields_.end() && it->second.present.contains(std::string{value});
}

std::size_t FieldDictionary::value_count(const std::string& field_path) const {
  const auto it = fields_.find(field_path);
  return it == fields_.end() ? 0 : it->second.values.size();
}

std::vector<FieldDictionary::Suggestion> FieldDictionary::suggest(
    const std::string& field_path, std::string_view value, std::size_t max_results,
    std::size_t max_distance) const {
  std::vector<Suggestion> suggestions;
  const auto it = fields_.find(field_path);
  if (it == fields_.end() || value.empty()) return suggestions;
  const FieldIndex& field = it->second;

  // Candidate retrieval: values sharing at least one trigram, scored by how
  // many grams they share so the edit-distance pass scans likely matches
  // first.
  // dhtidx-lint: allow(hot-path-map) "per-call scratch tally; candidates are re-ranked by a deterministic (count, index) order before use"
  std::unordered_map<std::uint32_t, std::size_t> shared;
  for (const std::string& gram : trigrams_of(value)) {
    const auto gram_it = field.trigrams.find(gram);
    if (gram_it == field.trigrams.end()) continue;
    for (const std::uint32_t id : gram_it->second) ++shared[id];
  }
  std::vector<std::pair<std::size_t, std::uint32_t>> candidates;
  candidates.reserve(shared.size());
  for (const auto& [id, count] : shared) candidates.emplace_back(count, id);
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  // Verify with (capped) edit distance; stop scanning after a generous
  // number of candidates so pathological fields stay fast.
  constexpr std::size_t kMaxCandidates = 2000;
  std::size_t scanned = 0;
  for (const auto& [count, id] : candidates) {
    if (++scanned > kMaxCandidates) break;
    const std::string& known_value = field.values[id];
    const std::size_t distance = edit_distance(value, known_value, max_distance);
    if (distance > max_distance) continue;
    if (distance == 0) continue;  // identical: nothing to suggest
    suggestions.push_back(Suggestion{known_value, distance});
  }
  std::sort(suggestions.begin(), suggestions.end(), [](const auto& a, const auto& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.value < b.value;
  });
  if (suggestions.size() > max_results) suggestions.resize(max_results);
  return suggestions;
}

std::vector<query::Query> FuzzyResolver::corrections(const query::Query& q,
                                                     std::size_t max_results) const {
  // Collect per-constraint repair options.
  struct Option {
    std::string value;
    std::size_t distance;
  };
  std::vector<std::vector<Option>> options;  // one list per constraint
  bool any_misspelled = false;
  for (const query::ConstraintView c : q.constraints()) {
    const std::string field{c.path};
    std::vector<Option> constraint_options;
    if (!c.value || c.value_is_prefix || dictionary_.known(field, *c.value)) {
      constraint_options.push_back(Option{std::string{c.value.value_or("")}, 0});
    } else {
      any_misspelled = true;
      for (const auto& s : dictionary_.suggest(field, *c.value)) {
        constraint_options.push_back(Option{s.value, s.distance});
      }
      if (constraint_options.empty()) return {};  // unrepairable constraint
    }
    options.push_back(std::move(constraint_options));
  }
  if (!any_misspelled) return {};

  // Cartesian product of repair options, pruned to the best few by total
  // edit distance. The product is tiny in practice (<= 5 options on the one
  // or two misspelled constraints).
  struct Candidate {
    query::Query query;
    std::size_t total_distance = 0;
  };
  std::vector<Candidate> partial{{query::Query{q.root()}, 0}};
  for (std::size_t i = 0; i < q.constraints().size(); ++i) {
    std::vector<Candidate> next;
    for (const Candidate& base : partial) {
      for (const Option& option : options[i]) {
        Candidate extended = base;
        query::ConstraintView c = q.constraints()[i];
        if (c.value && !c.value_is_prefix) c.value = option.value;
        extended.query.add_constraint(c);
        extended.total_distance += option.distance;
        next.push_back(std::move(extended));
      }
    }
    std::sort(next.begin(), next.end(), [](const Candidate& a, const Candidate& b) {
      return a.total_distance < b.total_distance;
    });
    if (next.size() > 4 * max_results) next.resize(4 * max_results);
    partial = std::move(next);
  }
  std::vector<query::Query> result;
  result.reserve(std::min(partial.size(), max_results));
  for (const Candidate& c : partial) {
    if (result.size() == max_results) break;
    result.push_back(c.query);
  }
  return result;
}

FuzzyResolver::Result FuzzyResolver::search(const query::Query& q, int depth_limit) {
  Result result;
  result.used_query = q;
  result.results = engine_.search_all(q, depth_limit);
  if (!result.results.empty()) return result;
  for (const query::Query& corrected : corrections(q)) {
    auto hits = engine_.search_all(corrected, depth_limit);
    if (!hits.empty()) {
      result.used_query = corrected;
      result.results = std::move(hits);
      result.corrected = true;
      return result;
    }
  }
  return result;
}

}  // namespace dhtidx::index
