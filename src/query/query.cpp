#include "query/query.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dhtidx::query {

namespace {

bool name_matches(std::string_view pattern, std::string_view name) {
  return (pattern.size() == 1 && pattern.front() == '*') || pattern == name;
}

/// Splits the first step off a slash-joined path, leaving the remainder in
/// `rest` (empty after the last step). Steps are never empty, so an empty
/// `rest` means the path is used up.
std::string_view take_step(std::string_view& rest) {
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return std::exchange(rest, std::string_view{});
  const std::string_view step{rest.data(), slash};
  rest.remove_prefix(slash + 1);
  return step;
}

std::size_t step_count(std::string_view path) {
  return static_cast<std::size_t>(std::count(path.begin(), path.end(), '/')) + 1;
}

/// True when some step of `path` is exactly "*".
bool has_star_step(std::string_view path) {
  for (std::size_t at = path.find('*'); at != std::string_view::npos;
       at = path.find('*', at + 1)) {
    const bool starts = at == 0 || path[at - 1] == '/';
    const bool ends = at + 1 == path.size() || path[at + 1] == '/';
    if (starts && ends) return true;
  }
  return false;
}

/// Does `pattern` (with wildcards) match `concrete` segment-by-segment?
/// A star-free pattern matches only the identical path.
bool path_matches_exact(std::string_view pattern, std::string_view concrete) {
  if (pattern == concrete) return true;
  if (!has_star_step(pattern)) return false;
  while (!pattern.empty() && !concrete.empty()) {
    if (!name_matches(take_step(pattern), take_step(concrete))) return false;
  }
  return pattern.empty() && concrete.empty();
}

/// Does `pattern` match a suffix of `concrete`?
bool path_matches_suffix(std::string_view pattern, std::string_view concrete) {
  const std::size_t want = step_count(pattern);
  const std::size_t have = step_count(concrete);
  if (want > have) return false;
  for (std::size_t skip = have - want; skip > 0; --skip) take_step(concrete);
  return path_matches_exact(pattern, concrete);
}

/// True when `element` satisfies the value part of `c`.
bool value_matches(const xml::Element& element, const Constraint& c) {
  if (!c.value) return true;
  return c.value_is_prefix ? starts_with(element.text(), *c.value) : element.text() == *c.value;
}

/// True when some element reached by following the remaining steps `rest`
/// from `node` satisfies `c`'s value.
bool reaches(const xml::Element& node, std::string_view rest, const Constraint& c) {
  if (rest.empty()) return value_matches(node, c);
  const std::string_view step = take_step(rest);
  for (const xml::Element& child : node.children()) {
    if (name_matches(step, child.name()) && reaches(child, rest, c)) return true;
  }
  return false;
}

/// reaches() starting from `node` or *any* of its descendants: the //
/// semantics.
bool reaches_anywhere(const xml::Element& node, std::string_view path, const Constraint& c) {
  if (reaches(node, path, c)) return true;
  for (const xml::Element& child : node.children()) {
    if (reaches_anywhere(child, path, c)) return true;
  }
  return false;
}

void collect_leaf_constraints(const xml::Element& node, std::string& path,
                              std::vector<Constraint>& out) {
  for (const xml::Element& child : node.children()) {
    const std::string& name = child.name();
    if (name.empty() || name.find('/') != std::string::npos) {
      throw InvariantError("element name '" + name + "' cannot be a path step");
    }
    const std::size_t mark = path.size();
    if (mark != 0) path.push_back('/');
    path += name;
    if (child.children().empty()) {
      Constraint c;
      c.path = path;
      if (!child.text().empty()) c.value = child.text();
      out.push_back(std::move(c));
    } else {
      collect_leaf_constraints(child, path, out);
    }
    path.resize(mark);
  }
}

/// The one cover bit of a constraint (see required_bits): FNV-1a over its
/// path steps and value, finished with a 64-bit mix so that every output bit
/// depends on the whole input. Identical constraints share a bit, which is
/// all soundness needs. Feeding the joined path and then '/' is the same
/// input as feeding each step followed by '/'.
std::uint64_t cover_bit(const Constraint& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](std::string_view text, char end) {
    for (const char ch : text) h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    h = (h ^ static_cast<unsigned char>(end)) * 0x100000001b3ULL;
  };
  feed(c.path, '/');
  if (c.value) feed(*c.value, '=');
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return std::uint64_t{1} << (h & 63);
}

/// True for a constraint that constraint_implies() derives only from an
/// identical one: an exact value on an anchored path with no "*" step.
bool is_plain(const Constraint& c) {
  return c.value && !c.value_is_prefix && !c.descendant && !has_star_step(c.path);
}

/// The step-wise path order of Constraint::operator<=>. At the first
/// differing byte, a side whose step has ended there (at '/' or at the end
/// of the path) holds a proper prefix of the other's step or step list, so
/// it sorts first, as in the step-vector order.
std::strong_ordering compare_paths(std::string_view a, std::string_view b) {
  const std::size_t common = std::min(a.size(), b.size());
  const auto [at_a, at_b] =
      std::mismatch(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(common), b.begin());
  if (at_a == a.begin() + static_cast<std::ptrdiff_t>(common)) {
    return a.size() <=> b.size();  // end of path < boundary < any character
  }
  if (*at_a == '/') return std::strong_ordering::less;
  if (*at_b == '/') return std::strong_ordering::greater;
  return static_cast<unsigned char>(*at_a) <=> static_cast<unsigned char>(*at_b);
}

/// Rejects a path with an empty step: "", "a//b", "/a" and "a/" would
/// render canonical strings that fail to re-parse or re-parse differently.
void check_path(std::string_view path) {
  const bool empty_step = path.empty() || path.front() == '/' || path.back() == '/' ||
                          path.find("//") != std::string_view::npos;
  if (empty_step) {
    throw InvariantError("constraint path '" + std::string{path} + "' has an empty step");
  }
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

bool needs_quoting(std::string_view value) {
  // '*' must be quoted because an unquoted "=*" means presence-only; edge
  // whitespace because the parser trims bare values.
  return value.empty() || is_space(value.front()) || is_space(value.back()) ||
         value.find_first_of("[]=/'\\*") != std::string_view::npos;
}

void append_quoted(std::string& out, std::string_view value) {
  out.push_back('\'');
  for (const char c : value) {
    if (c == '\'' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('\'');
}

}  // namespace

bool path_equals(std::string_view path, const std::vector<std::string>& steps) {
  for (const std::string& step : steps) {
    if (path.empty() || take_step(path) != step) return false;
  }
  return path.empty();
}

std::strong_ordering Constraint::operator<=>(const Constraint& other) const {
  if (const auto order = compare_paths(path, other.path); order != 0) return order;
  if (const auto order = value <=> other.value; order != 0) return order;
  if (const auto order = descendant <=> other.descendant; order != 0) return order;
  return value_is_prefix <=> other.value_is_prefix;
}

Query Query::most_specific(const xml::Element& descriptor) {
  Query q{descriptor.name()};
  std::string path;
  collect_leaf_constraints(descriptor, path, q.constraints_);
  q.normalize();
  return q;
}

Query& Query::add_constraint(Constraint constraint) {
  check_path(constraint.path);
  constraints_.push_back(std::move(constraint));
  normalize();
  return *this;
}

Query& Query::add_field(std::string_view slash_path, std::string value) {
  Constraint c;
  c.path = slash_path;
  c.value = std::move(value);
  return add_constraint(std::move(c));
}

Query& Query::add_presence(std::string_view slash_path) {
  Constraint c;
  c.path = slash_path;
  return add_constraint(std::move(c));
}

Query& Query::add_prefix(std::string_view slash_path, std::string prefix) {
  Constraint c;
  c.path = slash_path;
  c.value = std::move(prefix);
  c.value_is_prefix = true;
  return add_constraint(std::move(c));
}

void Query::normalize() {
  std::sort(constraints_.begin(), constraints_.end());
  constraints_.erase(std::unique(constraints_.begin(), constraints_.end()),
                     constraints_.end());
  invalidate_cache();
}

const std::string& Query::canonical() const {
  if (!canonical_cache_.empty()) return canonical_cache_;
  std::string out = "/" + root_;
  for (const Constraint& c : constraints_) {
    out.push_back('[');
    if (c.descendant) out += "//";
    out += c.path;
    if (c.value) {
      if (c.value_is_prefix) out.push_back('^');
      out.push_back('=');
      if (needs_quoting(*c.value)) {
        append_quoted(out, *c.value);
      } else {
        out += *c.value;
      }
    } else if (c.path.find('/') != std::string::npos) {
      // Multi-step presence constraints need the explicit marker; a bare
      // multi-step path would re-parse with its last step as a value.
      out += "=*";
    }
    out.push_back(']');
  }
  canonical_cache_ = std::move(out);
  return canonical_cache_;
}

bool Query::matches(const xml::Element& doc) const {
  if (!name_matches(root_, doc.name())) return false;
  return std::all_of(constraints_.begin(), constraints_.end(), [&](const Constraint& c) {
    return c.descendant ? reaches_anywhere(doc, c.path, c) : reaches(doc, c.path, c);
  });
}

bool constraint_implies(const Constraint& specific, const Constraint& general) {
  // Value: a presence requirement is implied by anything on the same field.
  // An exact requirement needs the identical exact value. A prefix
  // requirement is implied by any exact value or longer/equal prefix that
  // begins with it ([last^=S] is implied by [last=Smith] and [last^=Smi]).
  if (general.value) {
    if (!specific.value) return false;
    if (general.value_is_prefix) {
      if (specific.value_is_prefix && specific.value->size() < general.value->size()) {
        return false;  // shorter prefix is weaker, not stronger
      }
      if (!starts_with(*specific.value, *general.value)) return false;
    } else {
      if (specific.value_is_prefix || *specific.value != *general.value) return false;
    }
  }
  // Path location. `general` belongs to the covering (weaker) query, so its
  // path pattern must be satisfied wherever `specific` pins the field.
  if (!general.descendant && !specific.descendant) {
    return path_matches_exact(general.path, specific.path);
  }
  if (general.descendant) {
    // general's path can match at any depth; specific pins an exact path (or
    // itself floats, in which case suffix matching is still the sound check).
    return path_matches_suffix(general.path, specific.path);
  }
  // general is anchored but specific floats: a document can satisfy the
  // floating constraint at a different position, so no implication.
  return false;
}

bool Query::covers(const Query& other) const {
  if (root_ != "*" && root_ != other.root_) return false;
  for (const Constraint& general : constraints_) {
    const bool implied =
        std::any_of(other.constraints_.begin(), other.constraints_.end(),
                    [&](const Constraint& specific) {
                      return constraint_implies(specific, general);
                    });
    if (!implied) return false;
  }
  return true;
}

std::uint64_t required_bits(const Query& q) {
  std::uint64_t bits = 0;
  for (const Constraint& c : q.constraints()) {
    if (is_plain(c)) bits |= cover_bit(c);
  }
  return bits;
}

std::uint64_t present_bits(const Query& q) {
  std::uint64_t bits = 0;
  for (const Constraint& c : q.constraints()) bits |= cover_bit(c);
  return bits;
}

bool Query::is_most_specific_of(const xml::Element& doc) const {
  return *this == most_specific(doc);
}

std::vector<Query> Query::drop_one_generalizations() const {
  std::vector<Query> result;
  result.reserve(constraints_.size());
  for (std::size_t drop = 0; drop < constraints_.size(); ++drop) {
    Query q{root_};
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      if (i != drop) q.constraints_.push_back(constraints_[i]);
    }
    q.normalize();
    result.push_back(std::move(q));
  }
  return result;
}

Query Query::keep_constraints(const std::vector<std::size_t>& keep) const {
  Query q{root_};
  for (const std::size_t i : keep) {
    if (i >= constraints_.size()) throw InvariantError("keep_constraints: index out of range");
    q.constraints_.push_back(constraints_[i]);
  }
  q.normalize();
  return q;
}

}  // namespace dhtidx::query
