// Flash plugin methods: URLLoader GET/POST and the Flash TCP socket.
#pragma once

#include "methods/method.h"

namespace bnm::methods {

class FlashHttpMethod : public MeasurementMethod {
 public:
  explicit FlashHttpMethod(bool post);

  const MethodInfo& info() const override { return info_; }
  void run(const MethodContext& ctx,
           sim::SmallFunction<void(MethodRunResult)> done) override;

 private:
  bool post_;
  MethodInfo info_;
};

class FlashSocketMethod : public MeasurementMethod {
 public:
  FlashSocketMethod();

  const MethodInfo& info() const override { return info_; }
  void run(const MethodContext& ctx,
           sim::SmallFunction<void(MethodRunResult)> done) override;

 private:
  MethodInfo info_;
};

}  // namespace bnm::methods
