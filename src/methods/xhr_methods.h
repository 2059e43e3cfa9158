// XHR GET / XHR POST measurement methods (JavaScript-native HTTP).
#pragma once

#include "methods/method.h"

namespace bnm::methods {

class XhrMethod : public MeasurementMethod {
 public:
  explicit XhrMethod(bool post);

  const MethodInfo& info() const override { return info_; }
  void run(const MethodContext& ctx,
           sim::SmallFunction<void(MethodRunResult)> done) override;

 private:
  bool post_;
  MethodInfo info_;
};

}  // namespace bnm::methods
