#include "common/arity_guard.hpp"

namespace oscs::arity {

namespace {

std::string render(const GuardStyle& style, std::string_view name) {
  if (!style.quote_names) return std::string(name);
  // Appending (not "'" + std::string(name)) keeps GCC 12's -Wrestrict
  // false positive on the prepend path out of -Werror builds.
  return std::string("'").append(name).append("'");
}

}  // namespace

std::string exactly_one_error(const GuardStyle& style,
                              std::size_t populated_count,
                              std::string_view choices,
                              std::string_view none_name) {
  if (populated_count == 1) return "";
  if (populated_count == 0) {
    return std::string(style.prefix) + "no " + std::string(none_name);
  }
  return std::string(style.prefix) + "populate exactly one of " +
         std::string(choices);
}

std::string pairwise_error(const GuardStyle& style,
                           std::string_view primary_name,
                           std::size_t primary_count,
                           std::string_view secondary_name,
                           std::size_t secondary_count) {
  if (secondary_count == primary_count) return "";
  return std::string(style.prefix) + render(style, secondary_name) +
         " must pair element-wise with " + render(style, primary_name) +
         " (" + std::to_string(secondary_count) + " " +
         std::string(secondary_name) + " for " +
         std::to_string(primary_count) + " " + std::string(primary_name) +
         ")";
}

std::string nonempty_error(const GuardStyle& style, std::string_view name,
                           std::size_t count) {
  if (count > 0) return "";
  if (style.quote_names) {
    return std::string(style.prefix) + render(style, name) +
           " must be a nonempty array";
  }
  return std::string(style.prefix) + "no " + std::string(name) + " values";
}

std::string unit_range_error(const GuardStyle& style, std::string_view name,
                             const std::vector<double>& values) {
  for (double v : values) {
    // Written as a negated conjunction so a NaN (every comparison false)
    // fails the guard instead of sliding through.
    if (!(v >= 0.0 && v <= 1.0)) {
      return std::string(style.prefix) + render(style, name) +
             " values must be finite and in [0, 1]";
    }
  }
  return "";
}

std::string both_error(const GuardStyle& style, std::string_view a,
                       std::string_view b, bool a_present, bool b_present) {
  if (!(a_present && b_present)) return "";
  return std::string(style.prefix) + "request carries both " +
         render(style, a) + " and " + render(style, b);
}

}  // namespace oscs::arity
