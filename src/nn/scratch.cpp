#include "nn/scratch.h"

#include <array>
#include <vector>

#include "util/check.h"

namespace sidco::nn {

namespace {

constexpr auto kSlots = static_cast<std::size_t>(ScratchSlot::kCount);

struct ThreadScratch {
  std::array<std::vector<float>, kSlots> buffers;
  std::array<bool, kSlots> held{};
};

ThreadScratch& thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

}  // namespace

Scratch::Scratch(ScratchSlot slot, std::size_t size) : slot_(slot) {
  ThreadScratch& s = thread_scratch();
  const auto i = static_cast<std::size_t>(slot);
  util::check(!s.held[i], "nn scratch slot taken twice on one thread");
  s.held[i] = true;
  std::vector<float>& buffer = s.buffers[i];
  if (buffer.size() < size) buffer.resize(size);
  span_ = {buffer.data(), size};
}

Scratch::~Scratch() {
  thread_scratch().held[static_cast<std::size_t>(slot_)] = false;
}

}  // namespace sidco::nn
