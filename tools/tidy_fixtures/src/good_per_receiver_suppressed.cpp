// Fixture: deliberate per-receiver scheduling (randomized backoff means
// distinct delivery times), suppressed with a justification.
#include <cstddef>
#include <vector>

struct Sim {
  template <typename F>
  void schedule_in(double delay, F&& handler);
  template <typename F>
  void schedule_fanout(double at, const std::vector<std::size_t>& receivers,
                       F&& handler);
};

double backoff(std::size_t v);

void forward(Sim& simulator,
             const std::vector<std::size_t>& forward_targets) {
  // Each forward draws its own backoff: per-receiver times differ.
  // mstc-tidy: allow(per-receiver-schedule)
  for (std::size_t v : forward_targets) {
    simulator.schedule_in(backoff(v), [v] { (void)v; });
  }
}

void broadcast(Sim& simulator, double at,
               const std::vector<std::size_t>& receiver_buffer) {
  // The batched fan-out path must NOT trip the rule: schedule_fanout is
  // the sanctioned API even though the receiver buffer is named here.
  simulator.schedule_fanout(at, receiver_buffer, [] {});
}
