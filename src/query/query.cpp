#include "query/query.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <new>
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
bool value_matches(const xml::Element& element, const ConstraintView& c) {
  if (!c.value) return true;
  return c.value_is_prefix ? starts_with(element.text(), *c.value) : element.text() == *c.value;
}

/// True when some element reached by following the remaining steps `rest`
/// from `node` satisfies `c`'s value.
bool reaches(const xml::Element& node, std::string_view rest, const ConstraintView& c) {
  if (rest.empty()) return value_matches(node, c);
  const std::string_view step = take_step(rest);
  for (const xml::Element& child : node.children()) {
    if (name_matches(step, child.name()) && reaches(child, rest, c)) return true;
  }
  return false;
}

/// reaches() starting from `node` or *any* of its descendants: the //
/// semantics.
bool reaches_anywhere(const xml::Element& node, std::string_view path,
                      const ConstraintView& c) {
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
std::uint64_t cover_bit(const ConstraintView& c) {
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
bool is_plain(const ConstraintView& c) {
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

/// Length of `value` quoted: the quotes plus a backslash before each quote
/// and backslash.
std::size_t quoted_size(std::string_view value) {
  return 2 + value.size() +
         static_cast<std::size_t>(std::count_if(value.begin(), value.end(), [](char c) {
           return c == '\'' || c == '\\';
         }));
}

char* write_quoted(char* out, std::string_view value) {
  *out++ = '\'';
  for (const char c : value) {
    if (c == '\'' || c == '\\') *out++ = '\\';
    *out++ = c;
  }
  *out++ = '\'';
  return out;
}

char* write(char* out, std::string_view text) {
  if (!text.empty()) std::memcpy(out, text.data(), text.size());  // data() may be null
  return out + text.size();
}

}  // namespace

// The buffer: Header, `count` Slots, the canonical text (`size` bytes), then
// the unescaped bytes of quoted values. Offsets in a slot count from the
// start of the text. A constraint's flags are read off the text itself: its
// path follows "[//" when it is a descendant path and "[" otherwise, and is
// followed by '^' exactly when its value is a prefix; value_off is 0 (the
// text's leading '/') when it has no value.
struct Query::Header {
  std::uint64_t required_bits;
  std::uint64_t present_bits;
  std::uint32_t bytes;      // the whole buffer
  std::uint32_t size;       // canonical text
  std::uint32_t root_size;  // root name, at text offset 1
  std::uint32_t count;      // constraints (slots)
  Id key;                   // memo of Id::hash(canonical), valid when key_cached
  bool key_cached;
};

struct Query::Slot {
  std::uint32_t path_off;
  std::uint32_t path_len;
  std::uint32_t value_off;
  std::uint32_t value_len;
};

const Query::Header* Query::header() const { return reinterpret_cast<const Header*>(buf_); }

const Query::Slot* Query::slots() const {
  return reinterpret_cast<const Slot*>(buf_ + sizeof(Header));
}

const char* Query::text() const { return buf_ + sizeof(Header) + header()->count * sizeof(Slot); }

std::size_t Query::size() const { return buf_ == nullptr ? 0 : header()->count; }

ConstraintView Query::view_at(std::size_t i) const { return view_of(slots()[i], text()); }

ConstraintView Query::view_of(const Slot& slot, const char* t) {
  ConstraintView c;
  c.path = std::string_view{t + slot.path_off, slot.path_len};
  if (slot.value_off != 0) c.value.emplace(t + slot.value_off, slot.value_len);
  c.descendant = t[slot.path_off - 1] == '/';
  c.value_is_prefix = t[slot.path_off + slot.path_len] == '^';
  return c;
}

Query Query::encode(std::string_view root, std::vector<ConstraintView>& constraints) {
  std::sort(constraints.begin(), constraints.end());
  constraints.erase(std::unique(constraints.begin(), constraints.end()), constraints.end());

  std::size_t text_size = 1 + root.size();
  std::size_t raw_size = 0;
  for (const ConstraintView& c : constraints) {
    text_size += 2 + (c.descendant ? 2 : 0) + c.path.size();
    if (c.value) {
      text_size += (c.value_is_prefix ? 2 : 1);
      if (needs_quoting(*c.value)) {
        text_size += quoted_size(*c.value);
        raw_size += c.value->size();
      } else {
        text_size += c.value->size();
      }
    } else if (c.path.find('/') != std::string_view::npos) {
      text_size += 2;  // "=*"
    }
  }
  const std::size_t bytes =
      sizeof(Header) + constraints.size() * sizeof(Slot) + text_size + raw_size;
  if (bytes > std::numeric_limits<std::uint32_t>::max()) {
    throw InvariantError("query of " + std::to_string(bytes) + " bytes exceeds 4 GiB");
  }

  Query q;
  q.buf_ = static_cast<char*>(::operator new(bytes));
  Header& h = *new (q.buf_) Header{};
  h.bytes = static_cast<std::uint32_t>(bytes);
  h.size = static_cast<std::uint32_t>(text_size);
  h.root_size = static_cast<std::uint32_t>(root.size());
  h.count = static_cast<std::uint32_t>(constraints.size());
  Slot* slot = reinterpret_cast<Slot*>(q.buf_ + sizeof(Header));
  char* const text = q.buf_ + sizeof(Header) + constraints.size() * sizeof(Slot);
  char* out = text;
  char* raw = text + text_size;
  const auto offset = [text](const char* at) { return static_cast<std::uint32_t>(at - text); };

  *out++ = '/';
  out = write(out, root);
  for (const ConstraintView& c : constraints) {
    *out++ = '[';
    if (c.descendant) out = write(out, "//");
    slot->path_off = offset(out);
    slot->path_len = static_cast<std::uint32_t>(c.path.size());
    out = write(out, c.path);
    slot->value_off = 0;
    slot->value_len = 0;
    if (c.value) {
      if (c.value_is_prefix) *out++ = '^';
      *out++ = '=';
      slot->value_len = static_cast<std::uint32_t>(c.value->size());
      if (needs_quoting(*c.value)) {
        out = write_quoted(out, *c.value);
        slot->value_off = offset(raw);
        raw = write(raw, *c.value);
      } else {
        slot->value_off = offset(out);
        out = write(out, *c.value);
      }
    } else if (c.path.find('/') != std::string_view::npos) {
      // Multi-step presence constraints need the explicit marker; a bare
      // multi-step path would re-parse with its last step as a value.
      out = write(out, "=*");
    }
    *out++ = ']';
    ++slot;
    const std::uint64_t bit = cover_bit(c);
    h.present_bits |= bit;
    if (is_plain(c)) h.required_bits |= bit;
  }
  return q;
}

bool path_equals(std::string_view path, const std::vector<std::string>& steps) {
  for (const std::string& step : steps) {
    if (path.empty() || take_step(path) != step) return false;
  }
  return path.empty();
}

std::strong_ordering ConstraintView::operator<=>(const ConstraintView& other) const {
  if (const auto order = compare_paths(path, other.path); order != 0) return order;
  if (const auto order = value <=> other.value; order != 0) return order;
  if (const auto order = descendant <=> other.descendant; order != 0) return order;
  return value_is_prefix <=> other.value_is_prefix;
}

std::strong_ordering Constraint::operator<=>(const Constraint& other) const {
  return ConstraintView{*this} <=> ConstraintView{other};
}

Query::Query(std::string_view root) {
  std::vector<ConstraintView> none;
  *this = encode(root, none);
}

Query::Query(std::string_view root, std::vector<ConstraintView> constraints) {
  for (const ConstraintView& c : constraints) check_path(c.path);
  *this = encode(root, constraints);
}

Query::Query(const Query& other) {
  if (other.buf_ == nullptr) return;
  buf_ = static_cast<char*>(::operator new(other.header()->bytes));
  std::memcpy(buf_, other.buf_, other.header()->bytes);
}

Query& Query::operator=(const Query& other) {
  if (this != &other) *this = Query{other};
  return *this;
}

Query& Query::operator=(Query&& other) noexcept {
  if (this != &other) {
    ::operator delete(buf_);
    buf_ = std::exchange(other.buf_, nullptr);
  }
  return *this;
}

Query::~Query() { ::operator delete(buf_); }

Query Query::most_specific(const xml::Element& descriptor) {
  std::vector<Constraint> constraints;
  std::string path;
  collect_leaf_constraints(descriptor, path, constraints);
  return Query{descriptor.name(), {constraints.begin(), constraints.end()}};
}

std::string_view Query::root() const {
  return buf_ == nullptr ? std::string_view{} : std::string_view{text() + 1, header()->root_size};
}

Query::ConstraintRange Query::constraints() const { return {this, size()}; }

bool Query::has_constraints() const { return size() != 0; }

std::string_view Query::canonical() const {
  return buf_ == nullptr ? std::string_view{"/"} : std::string_view{text(), header()->size};
}

const Id& Query::key() const {
  if (buf_ == nullptr) {
    static const Id empty_key = Id::hash("/");
    return empty_key;
  }
  Header& h = *reinterpret_cast<Header*>(buf_);
  if (!h.key_cached) {
    h.key = Id::hash(canonical());
    h.key_cached = true;
  }
  return h.key;
}

Query& Query::add_constraint(const ConstraintView& constraint) {
  check_path(constraint.path);
  std::vector<ConstraintView> views;
  views.reserve(size() + 1);
  for (const ConstraintView c : constraints()) views.push_back(c);
  views.push_back(constraint);
  *this = encode(root(), views);
  return *this;
}

Query& Query::add_field(std::string_view slash_path, std::string_view value) {
  return add_constraint(ConstraintView{slash_path, value});
}

Query& Query::add_presence(std::string_view slash_path) {
  return add_constraint(ConstraintView{slash_path, std::nullopt});
}

Query& Query::add_prefix(std::string_view slash_path, std::string_view prefix) {
  return add_constraint(ConstraintView{slash_path, prefix, false, true});
}

bool Query::matches(const xml::Element& doc) const {
  if (!name_matches(root(), doc.name())) return false;
  for (const ConstraintView c : constraints()) {
    if (!(c.descendant ? reaches_anywhere(doc, c.path, c) : reaches(doc, c.path, c))) {
      return false;
    }
  }
  return true;
}

namespace {

/// The value half of constraint_implies. A presence requirement is implied
/// by anything on the same field. An exact requirement needs the identical
/// exact value. A prefix requirement is implied by any exact value or
/// longer/equal prefix that begins with it ([last^=S] is implied by
/// [last=Smith] and [last^=Smi]).
bool value_implies(std::optional<std::string_view> specific, bool specific_is_prefix,
                   const ConstraintView& general) {
  if (!general.value) return true;
  if (!specific) return false;
  if (general.value_is_prefix) {
    if (specific_is_prefix && specific->size() < general.value->size()) {
      return false;  // shorter prefix is weaker, not stronger
    }
    return starts_with(*specific, *general.value);
  }
  return !specific_is_prefix && *specific == *general.value;
}

/// The path half of constraint_implies. `general` belongs to the covering
/// (weaker) query, so its path pattern must be satisfied wherever the
/// specific constraint pins the field.
bool path_implies(std::string_view specific, bool specific_is_descendant,
                  const ConstraintView& general) {
  if (!general.descendant && !specific_is_descendant) {
    return path_matches_exact(general.path, specific);
  }
  if (general.descendant) {
    // general's path can match at any depth; specific pins an exact path (or
    // itself floats, in which case suffix matching is still the sound check).
    return path_matches_suffix(general.path, specific);
  }
  // general is anchored but specific floats: a document can satisfy the
  // floating constraint at a different position, so no implication.
  return false;
}

}  // namespace

bool constraint_implies(const ConstraintView& specific, const ConstraintView& general) {
  return value_implies(specific.value, specific.value_is_prefix, general) &&
         path_implies(specific.path, specific.descendant, general);
}

bool Query::covers(const Query& other) const {
  const std::string_view r = root();
  if (r != "*" && r != other.root()) return false;
  const std::size_t n = size();
  const std::size_t m = other.size();
  if (n == 0) return true;
  if (m == 0) return false;
  const Slot* const own_slots = slots();
  const char* const own_text = text();
  const Slot* const their_slots = other.slots();
  const char* const t = other.text();
  for (std::size_t i = 0; i < n; ++i) {
    const ConstraintView general = view_of(own_slots[i], own_text);
    // constraint_implies against each slot of `other`, read lazily: the
    // value test, which rejects most pairs, needs only the value bytes.
    const bool exact = general.value && !general.value_is_prefix;
    const bool implied = std::any_of(their_slots, their_slots + m, [&](const Slot& s) {
      if (exact && s.value_len != general.value->size()) return false;  // the common miss
      const std::optional<std::string_view> value =
          s.value_off == 0 ? std::nullopt
                           : std::optional<std::string_view>{{t + s.value_off, s.value_len}};
      return value_implies(value, t[s.path_off + s.path_len] == '^', general) &&
             path_implies({t + s.path_off, s.path_len}, t[s.path_off - 1] == '/', general);
    });
    if (!implied) return false;
  }
  return true;
}

std::uint64_t required_bits(const Query& q) {
  return q.buf_ == nullptr ? 0 : q.header()->required_bits;
}

std::uint64_t present_bits(const Query& q) {
  return q.buf_ == nullptr ? 0 : q.header()->present_bits;
}

bool Query::is_most_specific_of(const xml::Element& doc) const {
  return *this == most_specific(doc);
}

std::vector<Query> Query::drop_one_generalizations() const {
  const std::size_t n = size();
  std::vector<Query> result;
  result.reserve(n);
  std::vector<ConstraintView> views;
  for (std::size_t drop = 0; drop < n; ++drop) {
    views.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (i != drop) views.push_back(view_at(i));
    }
    result.push_back(encode(root(), views));
  }
  return result;
}

Query Query::keep_constraints(const std::vector<std::size_t>& keep) const {
  std::vector<ConstraintView> views;
  views.reserve(keep.size());
  for (const std::size_t i : keep) {
    if (i >= size()) throw InvariantError("keep_constraints: index out of range");
    views.push_back(view_at(i));
  }
  return encode(root(), views);
}

}  // namespace dhtidx::query
