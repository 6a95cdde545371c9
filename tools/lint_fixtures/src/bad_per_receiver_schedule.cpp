// Fixture: per-receiver loop pushing one simulator event per delivery.
// The batched Simulator::schedule_fanout API exists for exactly this.
#include <cstddef>
#include <vector>

struct Sim {
  template <typename F>
  void schedule_at(double at, F&& handler);
};

void broadcast(Sim& simulator, double at,
               const std::vector<std::size_t>& receiver_buffer) {
  for (std::size_t v : receiver_buffer) {
    simulator.schedule_at(at, [v] { (void)v; });
  }
}
