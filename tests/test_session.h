// Shared test helper: open a session on the default runtime and wait for
// its preprocessing, failing the calling test if the open failed.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "runtime/runtime.h"

namespace hcspmm {

inline std::shared_ptr<Session> OpenReady(const std::string& kernel,
                                          const CsrMatrix* abar, const DeviceSpec& dev,
                                          DataType dtype, int num_threads = 0) {
  std::shared_ptr<Session> session = Runtime::Default()->OpenSession(
      abar, SessionOptions()
                .set_kernel(kernel)
                .set_device(dev)
                .set_dtype(dtype)
                .set_num_threads(num_threads));
  const Status st = session->WaitReady();
  EXPECT_TRUE(st.ok()) << kernel << ": " << st.ToString();
  return session;
}

}  // namespace hcspmm
