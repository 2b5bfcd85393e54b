// Seeded violations for the no-closure-dispatch rule (scope: src/sim/ and
// src/net/). Every line carrying an EXPECT-LINT annotation must be
// reported by the engine; the waived seed at the bottom must NOT be. The
// same std::function in src/core/ (see ../core/bad_hot_path_alloc.cpp) is
// outside this rule's scope.
#include <functional>

namespace fixture {

struct Pulse {
  int sender = -1;
};

class Network {
 public:
  using Handler = std::function<void(const Pulse&)>;  // EXPECT-LINT: no-closure-dispatch

  void register_handler(int node,
                        std::function<void(const Pulse&)> h) {  // EXPECT-LINT: no-closure-dispatch
    (void)node;
    (void)h;
  }
};

// A string or comment mentioning std::function must not trip the rule.
const char* kDocString = "std::function is banned here";

void waived_closure() {
  // ftgcs-lint: allow(no-closure-dispatch) fixture: proves waivers suppress
  std::function<void()> f = [] {};
  f();
}

}  // namespace fixture
