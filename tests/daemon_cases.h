// Front-side test cases shared by serve_test (bccd) and router_test (bccr).
//
// Both daemons listen through one Listener and split frames with one
// FrameReader, so the same bytes must get the same answers from either.
// Each case takes the calling suite's own running-daemon harness: `Running`
// is constructible from the daemon's config and exposes connect() and
// stop(), whose stats carry too_large and protocol_violations.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/errors.h"
#include "serve/client.h"
#include "serve/wire.h"

namespace bcclb::daemon_cases {

// A framing-valid request frame whose payload of `len` bytes exceeds the
// daemons' default max_request_bytes (64).
inline std::string oversized_frame(std::uint32_t len) {
  std::string frame;
  frame.append(kWireMagic, sizeof kWireMagic);
  frame.push_back(static_cast<char>(kWireVersion));
  frame.push_back(static_cast<char>(RequestType::kClassify));
  frame.append(2, '\0');  // status
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  frame.append(len, '\x7f');
  return frame;
}

template <class Running>
void oversized_frame_is_skipped_without_dropping_the_connection(Running& running,
                                                                const Request& ok_request) {
  ServeClient client = running.connect();
  client.send_raw(oversized_frame(500));

  const Response bounced = client.read_response();
  EXPECT_EQ(bounced.status, StatusCode::kRequestTooLarge);

  // Framing survived the skip: the next well-formed request is served.
  const Response ok = client.request(ok_request);
  EXPECT_EQ(ok.status, StatusCode::kOk);
  EXPECT_EQ(running.stop().too_large, 1u);
}

template <class Running>
void bad_magic_gets_one_error_frame_then_close(Running& running) {
  ServeClient client = running.connect();
  client.send_raw("GARBAGE BYTES THAT ARE NOT A FRAME");
  const Response error = client.read_response();
  EXPECT_EQ(error.status, StatusCode::kProtocolViolation);
  // The stream is unrecoverable, so the daemon closes after the flush.
  EXPECT_THROW(client.read_response(), ServeError);
  EXPECT_EQ(running.stop().protocol_violations, 1u);
}

// `config_at(path)` returns a config for a daemon of type `Daemon` that
// listens on the unix socket `path`; `request` must be answerable with OK.
template <class Running, class Daemon, class ConfigAt>
void unix_socket_reclaims_stale_files_and_refuses_live_ones(const std::string& path,
                                                           ConfigAt config_at,
                                                           const Request& request) {
  // A stale leftover (regular file here; nobody accepts on it) is reclaimed.
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  Running running(config_at(path));
  ServeClient client = ServeClient::connect_unix(path);
  EXPECT_EQ(client.request(request).status, StatusCode::kOk);

  // A second daemon on the same live socket must refuse to start, and its
  // refusal must leave the first one's socket reachable.
  {
    Daemon other(config_at(path));
    EXPECT_THROW(other.bind(), ServeError);
  }
  ServeClient again = ServeClient::connect_unix(path);
  EXPECT_EQ(again.request(request).status, StatusCode::kOk);

  running.stop();
  // Drain removed the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

}  // namespace bcclb::daemon_cases
