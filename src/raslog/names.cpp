#include <cstddef>
#include <string>

#include "raslog/category.hpp"
#include "raslog/component.hpp"
#include "raslog/severity.hpp"
#include "util/error.hpp"

namespace failmine::raslog {

namespace {

// One spelling table per enum, indexed by the enum's value; both
// directions of the name mapping read it.
constexpr std::string_view kSeverityNames[] = {"INFO", "WARN", "FATAL"};
constexpr std::string_view kComponentNames[] = {
    "CNK", "MMCS", "MC",       "BQC",   "DDR",  "ND",      "MUDM",
    "PCI", "CARD", "FIRMWARE", "LINUX", "GPFS", "COOLANT", "BULKPOWER"};
constexpr std::string_view kCategoryNames[] = {
    "MEMORY",   "PROCESSOR", "NETWORK", "IO",
    "SOFTWARE", "POWER",     "COOLING", "CONTROL"};

static_assert(std::size(kSeverityNames) == std::size(kAllSeverities));
static_assert(std::size(kComponentNames) == std::size(kAllComponents));
static_assert(std::size(kCategoryNames) == std::size(kAllCategories));

template <class Enum, std::size_t N>
std::string name_of(const std::string_view (&names)[N], Enum value,
                    const char* what) {
  const auto i = static_cast<std::size_t>(value);
  if (i >= N) throw failmine::DomainError(std::string("unknown ") + what);
  return std::string(names[i]);
}

/// Exact-case lookup; returns N when `name` is not in the table.
template <std::size_t N>
std::size_t index_of(const std::string_view (&names)[N],
                     std::string_view name) {
  std::size_t i = 0;
  while (i < N && names[i] != name) ++i;
  return i;
}

/// ASCII case-insensitive equality, with no lower-cased copy; bytes
/// outside A-Z compare as they are.
bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    char c = a[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    char d = b[i];
    if (d >= 'A' && d <= 'Z') d = static_cast<char>(d - 'A' + 'a');
    if (c != d) return false;
  }
  return true;
}

}  // namespace

std::string severity_name(Severity severity) {
  return name_of(kSeverityNames, severity, "severity");
}

Severity severity_from_name(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kSeverityNames); ++i)
    if (iequals(name, kSeverityNames[i])) return static_cast<Severity>(i);
  if (iequals(name, "warning")) return Severity::kWarn;
  throw failmine::ParseError("unknown severity: '" + std::string(name) + "'");
}

std::string component_name(Component component) {
  return name_of(kComponentNames, component, "component");
}

Component component_from_name(std::string_view name) {
  const std::size_t i = index_of(kComponentNames, name);
  if (i == std::size(kComponentNames))
    throw failmine::ParseError("unknown component: '" + std::string(name) +
                               "'");
  return static_cast<Component>(i);
}

std::string category_name(Category category) {
  return name_of(kCategoryNames, category, "category");
}

Category category_from_name(std::string_view name) {
  const std::size_t i = index_of(kCategoryNames, name);
  if (i == std::size(kCategoryNames))
    throw failmine::ParseError("unknown category: '" + std::string(name) +
                               "'");
  return static_cast<Category>(i);
}

}  // namespace failmine::raslog
