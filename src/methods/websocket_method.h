// WebSocket measurement method: message-based socket probes, native in the
// browser - the paper's most accurate/consistent DOM-context option.
#pragma once

#include "methods/method.h"

namespace bnm::methods {

class WebSocketMethod : public MeasurementMethod {
 public:
  WebSocketMethod();

  const MethodInfo& info() const override { return info_; }
  void run(const MethodContext& ctx,
           sim::SmallFunction<void(MethodRunResult)> done) override;

 private:
  MethodInfo info_;
};

}  // namespace bnm::methods
