#include "index/scheme.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dhtidx::index {

namespace {

/// The exact-value constraint of `msd` at `path`, if it has one.
std::optional<query::ConstraintView> exact_field(const query::Query& msd,
                                                 const std::vector<std::string>& path) {
  for (const query::ConstraintView c : msd.constraints()) {
    if (c.value && !c.value_is_prefix && query::path_equals(c.path, path)) return c;
  }
  return std::nullopt;
}

}  // namespace

std::string to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kSimple:
      return "simple";
    case SchemeKind::kFlat:
      return "flat";
    case SchemeKind::kComplex:
      return "complex";
  }
  return "?";
}

IndexingScheme::IndexingScheme(std::string name, std::vector<FieldRule> rules)
    : name_(std::move(name)), rules_(std::move(rules)) {
  for (const FieldRule& rule : rules_) {
    if (rule.source_fields.empty()) {
      throw InvariantError("scheme rule needs at least one source field");
    }
    if (!rule.target_is_msd && rule.target_fields.empty()) {
      throw InvariantError("scheme rule needs target fields or MSD target");
    }
    if (!rule.target_is_msd) {
      // The source fields must be a subset of the target fields, otherwise
      // the generated source would not cover the target.
      for (const std::string& f : rule.source_fields) {
        if (std::find(rule.target_fields.begin(), rule.target_fields.end(), f) ==
            rule.target_fields.end()) {
          throw InvariantError("scheme rule source field '" + f +
                               "' missing from target fields; source would not cover target");
        }
      }
    }
  }
}

IndexingScheme IndexingScheme::simple() {
  return IndexingScheme{
      "simple",
      {
          {{"author"}, {"author", "title"}, false},
          {{"title"}, {"author", "title"}, false},
          {{"author", "title"}, {}, true},
          {{"conf"}, {"conf", "year"}, false},
          {{"year"}, {"conf", "year"}, false},
          {{"conf", "year"}, {}, true},
      }};
}

IndexingScheme IndexingScheme::flat() {
  return IndexingScheme{
      "flat",
      {
          {{"author"}, {}, true},
          {{"title"}, {}, true},
          {{"author", "title"}, {}, true},
          {{"conf"}, {}, true},
          {{"year"}, {}, true},
          {{"conf", "year"}, {}, true},
      }};
}

IndexingScheme IndexingScheme::complex() {
  return IndexingScheme{
      "complex",
      {
          {{"author"}, {"author", "conf"}, false},
          {{"author", "conf"}, {"author", "conf", "year"}, false},
          {{"author", "conf", "year"}, {}, true},
          {{"title"}, {"author", "title"}, false},
          {{"author", "title"}, {}, true},
          {{"conf"}, {"conf", "year"}, false},
          {{"year"}, {"conf", "year"}, false},
          {{"conf", "year"}, {}, true},
      }};
}

IndexingScheme IndexingScheme::figure4() {
  IndexingScheme scheme{"figure4", simple().rules()};
  // The "Last name" index of Figure 4: author/last -> author (full name).
  scheme.add_path_rule({{"author", "last"}, {"author"}, false});
  return scheme;
}

IndexingScheme IndexingScheme::make(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kSimple:
      return simple();
    case SchemeKind::kFlat:
      return flat();
    case SchemeKind::kComplex:
      return complex();
  }
  throw InvariantError("unknown scheme kind");
}

IndexingScheme& IndexingScheme::add_prefix_rule(PrefixRule rule) {
  if (rule.path.empty()) throw InvariantError("prefix rule needs a field path");
  if (rule.prefix_length == 0) throw InvariantError("prefix rule needs length > 0");
  if (!rule.target_is_msd) {
    if (rule.target_fields.empty()) {
      throw InvariantError("prefix rule needs target fields or MSD target");
    }
    if (std::find(rule.target_fields.begin(), rule.target_fields.end(),
                  rule.path.front()) == rule.target_fields.end()) {
      throw InvariantError("prefix rule target fields must include '" +
                           rule.path.front() + "' or the key would not cover the target");
    }
  }
  prefix_rules_.push_back(std::move(rule));
  return *this;
}

IndexingScheme& IndexingScheme::add_path_rule(PathRule rule) {
  if (rule.path.empty()) throw InvariantError("path rule needs a field path");
  if (!rule.target_is_msd) {
    if (rule.target_fields.empty()) {
      throw InvariantError("path rule needs target fields or MSD target");
    }
    if (std::find(rule.target_fields.begin(), rule.target_fields.end(),
                  rule.path.front()) == rule.target_fields.end()) {
      throw InvariantError("path rule target fields must include '" +
                           rule.path.front() + "' or the key would not cover the target");
    }
  }
  path_rules_.push_back(std::move(rule));
  return *this;
}

query::Query IndexingScheme::project(const query::Query& msd,
                                     const std::vector<std::string>& fields) {
  std::vector<std::size_t> keep;
  const auto& constraints = msd.constraints();
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const std::string_view field = constraints[i].first_step();
    if (std::find(fields.begin(), fields.end(), field) != fields.end()) {
      keep.push_back(i);
    }
  }
  return msd.keep_constraints(keep);
}

std::vector<Mapping> IndexingScheme::mappings_for(const query::Query& msd) const {
  std::vector<Mapping> mappings;
  mappings.reserve(rules_.size());
  for (const FieldRule& rule : rules_) {
    query::Query source = project(msd, rule.source_fields);
    if (!source.has_constraints()) continue;  // descriptor lacks the source fields
    query::Query target = rule.target_is_msd ? msd : project(msd, rule.target_fields);
    if (source == target) continue;  // degenerate: entry would map a key to itself
    mappings.push_back(Mapping{std::move(source), std::move(target)});
  }
  for (const PathRule& rule : path_rules_) {
    const std::optional<query::ConstraintView> field = exact_field(msd, rule.path);
    if (!field) continue;  // descriptor lacks the field
    query::Query source{msd.root()};
    source.add_constraint(*field);
    query::Query target = rule.target_is_msd ? msd : project(msd, rule.target_fields);
    if (source == target) continue;
    mappings.push_back(Mapping{std::move(source), std::move(target)});
  }
  for (const PrefixRule& rule : prefix_rules_) {
    const std::optional<query::ConstraintView> field = exact_field(msd, rule.path);
    if (!field) continue;  // descriptor lacks the field
    const std::size_t length = std::min(rule.prefix_length, field->value->size());
    if (length == 0) continue;
    query::Query source{msd.root()};
    source.add_prefix(field->path, field->value->substr(0, length));
    query::Query target =
        rule.target_is_msd ? msd : project(msd, rule.target_fields);
    if (source == target) continue;
    mappings.push_back(Mapping{std::move(source), std::move(target)});
  }
  return mappings;
}

}  // namespace dhtidx::index
