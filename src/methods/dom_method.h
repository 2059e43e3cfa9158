// DOM-element measurement method: insert an <img> tag, time onload.
#pragma once

#include "methods/method.h"

namespace bnm::methods {

class DomMethod : public MeasurementMethod {
 public:
  DomMethod();

  const MethodInfo& info() const override { return info_; }
  void run(const MethodContext& ctx,
           sim::SmallFunction<void(MethodRunResult)> done) override;

 private:
  MethodInfo info_;
};

}  // namespace bnm::methods
