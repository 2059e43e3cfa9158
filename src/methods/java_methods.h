// Java applet methods: URL GET/POST, TCP socket, and UDP socket (the UDP
// method appears in Table 1 but was excluded from the paper's runs; we
// implement it as an extension).
#pragma once

#include "methods/method.h"

namespace bnm::methods {

class JavaHttpMethod : public MeasurementMethod {
 public:
  explicit JavaHttpMethod(bool post);

  const MethodInfo& info() const override { return info_; }
  void run(const MethodContext& ctx,
           sim::SmallFunction<void(MethodRunResult)> done) override;

 private:
  bool post_;
  MethodInfo info_;
};

class JavaSocketMethod : public MeasurementMethod {
 public:
  explicit JavaSocketMethod(bool udp);

  const MethodInfo& info() const override { return info_; }
  void run(const MethodContext& ctx,
           sim::SmallFunction<void(MethodRunResult)> done) override;

 private:
  bool udp_;
  MethodInfo info_;
};

}  // namespace bnm::methods
