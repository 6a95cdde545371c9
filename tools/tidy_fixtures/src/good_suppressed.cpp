// Fixture: findings silenced with mstc-tidy allow() markers must not be
// reported — same-line and previous-line placements both count.
#include <string>
#include <unordered_map>

struct Cache {
  std::unordered_map<int, std::string> entries;

  // Order-independent: clear() touches every entry regardless of order.
  void wipe() {
    // mstc-tidy: allow(unordered-iteration)
    for (auto& [key, value] : entries) value.clear();
  }

  std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& [key, value] : entries) total += value.size();  // mstc-tidy: allow(unordered-iteration)
    return total;
  }
};
