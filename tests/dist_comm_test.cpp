// Tests for the thread-backed communicator: point-to-point messaging,
// ring collectives (verified against serial reference reductions), and
// MPI-style split. Property-swept over world sizes, including non-powers
// of two and lengths that do not divide evenly into ring chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "ptdp/dist/world.hpp"
#include "ptdp/runtime/rng.hpp"

namespace ptdp::dist {
namespace {

std::vector<float> rank_payload(int rank, std::size_t len) {
  std::vector<float> v(len);
  Rng rng(1234, substream(static_cast<std::uint64_t>(rank)));
  for (auto& x : v) x = static_cast<float>(rng.next_uniform(-1.0, 1.0));
  return v;
}

TEST(World, RunsEveryRankExactlyOnce) {
  World world(6);
  std::vector<std::atomic<int>> hits(6);
  world.run([&](Comm& comm) { hits[static_cast<std::size_t>(comm.rank())]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(World, PropagatesRankExceptions) {
  World world(4);
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
                 // Other ranks exit cleanly without waiting on rank 2.
               }),
               std::runtime_error);
}

TEST(Comm, SendRecvDeliversPayload) {
  World world(2);
  world.run([](Comm& comm) {
    std::vector<float> buf{1.5f, -2.5f, 3.25f};
    if (comm.rank() == 0) {
      comm.send(std::span<const float>(buf), 1, /*tag=*/7);
    } else {
      std::vector<float> got(3, 0.f);
      comm.recv(std::span<float>(got), 0, /*tag=*/7);
      EXPECT_EQ(got, buf);
    }
  });
}

TEST(Comm, TagsDisambiguateOutOfOrderMessages) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const float a = 1.f, b = 2.f;
      comm.send(std::span<const float>(&a, 1), 1, /*tag=*/100);
      comm.send(std::span<const float>(&b, 1), 1, /*tag=*/200);
    } else {
      float b = 0.f, a = 0.f;
      // Receive in the opposite order of sending.
      comm.recv(std::span<float>(&b, 1), 0, /*tag=*/200);
      comm.recv(std::span<float>(&a, 1), 0, /*tag=*/100);
      EXPECT_EQ(a, 1.f);
      EXPECT_EQ(b, 2.f);
    }
  });
}

TEST(Comm, SameTagMessagesDeliverFifo) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (float v : {1.f, 2.f, 3.f}) {
        comm.send(std::span<const float>(&v, 1), 1, /*tag=*/5);
      }
    } else {
      for (float expect : {1.f, 2.f, 3.f}) {
        float got = 0.f;
        comm.recv(std::span<float>(&got, 1), 0, /*tag=*/5);
        EXPECT_EQ(got, expect);
      }
    }
  });
}

TEST(Comm, SendRecvOfTrivialStructs) {
  struct Msg {
    int a;
    double b;
  };
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const Msg m{42, 2.718};
      comm.send(std::span<const Msg>(&m, 1), 1);
    } else {
      Msg m{};
      comm.recv(std::span<Msg>(&m, 1), 0);
      EXPECT_EQ(m.a, 42);
      EXPECT_DOUBLE_EQ(m.b, 2.718);
    }
  });
}

// ---- nonblocking point-to-point (Request) ---------------------------------

TEST(CommRequest, IsendIsBornComplete) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<float> buf{7.f, 8.f};
      Request req = comm.isend(std::span<const float>(buf), 1, /*tag=*/3);
      EXPECT_TRUE(req.done());  // buffered transport: payload already copied
      buf[0] = -1.f;            // reuse immediately, receiver sees original
    } else {
      std::vector<float> got(2, 0.f);
      comm.recv(std::span<float>(got), 0, /*tag=*/3);
      EXPECT_EQ(got, (std::vector<float>{7.f, 8.f}));
    }
  });
}

TEST(CommRequest, TestPollsWithoutBlocking) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 1) {
      float got = 0.f;
      Request req = comm.irecv(std::span<float>(&got, 1), 0, /*tag=*/11);
      // The sender blocks on our go-signal, so the message cannot be in
      // flight yet: test() must report not-done without blocking.
      EXPECT_FALSE(req.test());
      EXPECT_FALSE(req.done());
      const std::uint8_t go = 1;
      comm.send(std::span<const std::uint8_t>(&go, 1), 0, /*tag=*/12);
      req.wait();
      EXPECT_TRUE(req.done());
      EXPECT_EQ(got, 42.f);
    } else {
      std::uint8_t go = 0;
      comm.recv(std::span<std::uint8_t>(&go, 1), 1, /*tag=*/12);
      const float v = 42.f;
      comm.send(std::span<const float>(&v, 1), 1, /*tag=*/11);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(CommRequest, TestCompletesOnceMessageArrives) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const float v = 5.f;
      comm.send(std::span<const float>(&v, 1), 1, /*tag=*/21);
    } else {
      float got = 0.f;
      Request req = comm.irecv(std::span<float>(&got, 1), 0, /*tag=*/21);
      while (!req.test()) {
        std::this_thread::yield();
      }
      EXPECT_EQ(got, 5.f);
      req.wait();  // wait() after completion is a no-op
    }
  });
}

TEST(CommRequest, PrepostedRecvsMatchDistinctTags) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      // Sends in the *reverse* order of the receiver's posts: tags route
      // each payload to the right pre-posted buffer regardless.
      const float b = 2.f, a = 1.f;
      comm.send(std::span<const float>(&b, 1), 1, /*tag=*/200);
      comm.send(std::span<const float>(&a, 1), 1, /*tag=*/100);
    } else {
      float a = 0.f, b = 0.f;
      Request ra = comm.irecv(std::span<float>(&a, 1), 0, /*tag=*/100);
      Request rb = comm.irecv(std::span<float>(&b, 1), 0, /*tag=*/200);
      ra.wait();
      rb.wait();
      EXPECT_EQ(a, 1.f);
      EXPECT_EQ(b, 2.f);
    }
  });
}

TEST(CommRequest, SameChannelRequestsCompleteFifo) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (float v : {1.f, 2.f}) {
        comm.send(std::span<const float>(&v, 1), 1, /*tag=*/5);
      }
    } else {
      float first = 0.f, second = 0.f;
      Request r1 = comm.irecv(std::span<float>(&first, 1), 0, /*tag=*/5);
      Request r2 = comm.irecv(std::span<float>(&second, 1), 0, /*tag=*/5);
      // Completion order is the caller's choice; payload order is FIFO in
      // *completion* order on the shared channel.
      r2.wait();
      r1.wait();
      EXPECT_EQ(second, 1.f);
      EXPECT_EQ(first, 2.f);
    }
  });
}

TEST(CommRequest, MoveTransfersObligation) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const float v = 9.f;
      comm.send(std::span<const float>(&v, 1), 1, /*tag=*/31);
    } else {
      float got = 0.f;
      Request req = comm.irecv(std::span<float>(&got, 1), 0, /*tag=*/31);
      Request moved = std::move(req);
      EXPECT_TRUE(req.done());  // NOLINT(bugprone-use-after-move): emptied
      moved.wait();
      EXPECT_EQ(got, 9.f);
    }
  });
}

class CommCollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CommCollectiveTest, BarrierCompletesRepeatedly) {
  World world(GetParam());
  world.run([](Comm& comm) {
    for (int i = 0; i < 20; ++i) comm.barrier();
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST_P(CommCollectiveTest, BroadcastFromEveryRoot) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<float> data =
          comm.rank() == root ? rank_payload(root, 17) : std::vector<float>(17, 0.f);
      comm.broadcast(std::span<float>(data), root);
      EXPECT_EQ(data, rank_payload(root, 17)) << "root=" << root;
    }
  });
}

TEST_P(CommCollectiveTest, AllReduceSumMatchesSerialReference) {
  const int n = GetParam();
  // Lengths chosen to stress uneven ring chunking (len % n != 0).
  for (std::size_t len : {1ul, 7ul, 64ul, 257ul}) {
    std::vector<float> expected(len, 0.f);
    for (int r = 0; r < n; ++r) {
      auto v = rank_payload(r, len);
      for (std::size_t i = 0; i < len; ++i) expected[i] += v[i];
    }
    World world(n);
    world.run([&](Comm& comm) {
      auto data = rank_payload(comm.rank(), len);
      comm.all_reduce(std::span<float>(data));
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_NEAR(data[i], expected[i], 1e-4f) << "len=" << len << " i=" << i;
      }
    });
  }
}

TEST_P(CommCollectiveTest, AllReduceMaxAndMin) {
  const int n = GetParam();
  const std::size_t len = 33;
  std::vector<float> expected_max(len, -1e30f), expected_min(len, 1e30f);
  for (int r = 0; r < n; ++r) {
    auto v = rank_payload(r, len);
    for (std::size_t i = 0; i < len; ++i) {
      expected_max[i] = std::max(expected_max[i], v[i]);
      expected_min[i] = std::min(expected_min[i], v[i]);
    }
  }
  World world(n);
  world.run([&](Comm& comm) {
    auto hi = rank_payload(comm.rank(), len);
    comm.all_reduce(std::span<float>(hi), ReduceOp::kMax);
    auto lo = rank_payload(comm.rank(), len);
    comm.all_reduce(std::span<float>(lo), ReduceOp::kMin);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(hi[i], expected_max[i]);
      ASSERT_EQ(lo[i], expected_min[i]);
    }
  });
}

TEST_P(CommCollectiveTest, AllReduceDouble) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    std::vector<double> data(11, static_cast<double>(comm.rank() + 1));
    comm.all_reduce(std::span<double>(data));
    const double expect = n * (n + 1) / 2.0;
    for (double v : data) ASSERT_DOUBLE_EQ(v, expect);
  });
}

TEST_P(CommCollectiveTest, ReduceScatterMatchesSerialReference) {
  // In place: each rank ends holding the full sum over its owned range —
  // chunk (rank+1) mod n of an uneven chunking — and the owned ranges tile
  // the buffer.
  const int n = GetParam();
  const std::size_t shard = 9;
  const std::size_t len = shard * static_cast<std::size_t>(n) + 2;
  std::vector<float> expected(len, 0.f);
  for (int r = 0; r < n; ++r) {
    auto v = rank_payload(r, len);
    for (std::size_t i = 0; i < len; ++i) expected[i] += v[i];
  }
  std::vector<int> owner(len, 0);
  std::mutex mu;
  World world(n);
  world.run([&](Comm& comm) {
    auto data = rank_payload(comm.rank(), len);
    comm.reduce_scatter_inplace(std::span<float>(data));
    const Comm::Range own = comm.owned_range(len);
    ASSERT_GE(own.size, len / static_cast<std::size_t>(n));
    ASSERT_LE(own.size, len / static_cast<std::size_t>(n) + 1);
    for (std::size_t i = own.offset; i < own.offset + own.size; ++i) {
      ASSERT_NEAR(data[i], expected[i], 1e-4f);
    }
    std::lock_guard lock(mu);
    for (std::size_t i = own.offset; i < own.offset + own.size; ++i) ++owner[i];
  });
  for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(owner[i], 1) << "element " << i;
}

TEST_P(CommCollectiveTest, ReduceScatterThenAllGatherIsAllReduceBitwise) {
  // Phase 1 then phase 2 is the ring all-reduce, bit for bit, at lengths
  // that do not divide by n (and one shorter than n), and phase 2 carries
  // 16-bit (bf16) payloads as well.
  const int n = GetParam();
  World world(n);
  world.run([&](Comm& comm) {
    for (const std::size_t len : {std::size_t{1}, std::size_t{37}, std::size_t{1001}}) {
      auto phased = rank_payload(comm.rank(), len);
      for (std::size_t i = 0; i < len; ++i) phased[i] *= 1.0f + 0.37f * static_cast<float>(i % 7);
      auto reduced = phased;
      comm.all_reduce(std::span<float>(reduced));
      comm.reduce_scatter_inplace(std::span<float>(phased));
      comm.all_gather_inplace(std::span<float>(phased));
      ASSERT_EQ(std::memcmp(phased.data(), reduced.data(), len * sizeof(float)), 0)
          << "len " << len;

      std::vector<std::uint16_t> bits(len, 0);
      const Comm::Range own = comm.owned_range(len);
      for (std::size_t i = own.offset; i < own.offset + own.size; ++i) {
        bits[i] = static_cast<std::uint16_t>(i * 31 + 7);
      }
      comm.all_gather_inplace(std::span<std::uint16_t>(bits));
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(bits[i], static_cast<std::uint16_t>(i * 31 + 7)) << "len " << len;
      }
    }
  });
}

TEST_P(CommCollectiveTest, AllGatherConcatenatesInRankOrder) {
  const int n = GetParam();
  const std::size_t shard = 13;
  World world(n);
  world.run([&](Comm& comm) {
    auto in = rank_payload(comm.rank(), shard);
    std::vector<float> out(shard * static_cast<std::size_t>(n), 0.f);
    comm.all_gather(std::span<const float>(in), std::span<float>(out));
    for (int r = 0; r < n; ++r) {
      auto expect = rank_payload(r, shard);
      for (std::size_t i = 0; i < shard; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(r) * shard + i], expect[i]);
      }
    }
  });
}

TEST_P(CommCollectiveTest, AllGatherVariablePayloads) {
  const int n = GetParam();
  World world(n);
  world.run([&](Comm& comm) {
    // Rank r contributes r+1 bytes of value r.
    std::vector<std::uint8_t> in(static_cast<std::size_t>(comm.rank() + 1),
                                 static_cast<std::uint8_t>(comm.rank()));
    auto all = comm.all_gather_variable(in);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r + 1));
      for (auto b : all[static_cast<std::size_t>(r)]) {
        ASSERT_EQ(b, static_cast<std::uint8_t>(r));
      }
    }
  });
}

TEST_P(CommCollectiveTest, AllReduceScalarConvenience) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    const float sum = comm.all_reduce_scalar(1.0f);
    EXPECT_EQ(sum, static_cast<float>(n));
    const float mx =
        comm.all_reduce_scalar(static_cast<float>(comm.rank()), ReduceOp::kMax);
    EXPECT_EQ(mx, static_cast<float>(n - 1));
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CommCollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(CommSplit, EvenOddSplitGroupsByColor) {
  World world(6);
  world.run([](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    EXPECT_EQ(sub.world_rank(), comm.rank());
    // Members are the same-parity ranks, ascending.
    for (int r = 0; r < sub.size(); ++r) {
      EXPECT_EQ(sub.world_rank_of(r), 2 * r + comm.rank() % 2);
    }
  });
}

TEST(CommSplit, KeyControlsOrderingWithinColor) {
  World world(4);
  world.run([](Comm& comm) {
    // Reverse ordering: higher parent rank gets lower key.
    Comm sub = comm.split(0, /*key=*/comm.size() - comm.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(CommSplit, SubCommunicatorCollectivesAreIsolated) {
  World world(6);
  world.run([](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    // Sum of parent ranks within each parity group.
    float v = static_cast<float>(comm.rank());
    v = sub.all_reduce_scalar(v);
    const float expect = comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_EQ(v, expect);
  });
}

TEST(CommSplit, NestedSplitsWork) {
  World world(8);
  world.run([](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());  // two groups of 4
    Comm quarter = half.split(half.rank() / 2, half.rank());  // four groups of 2
    EXPECT_EQ(quarter.size(), 2);
    const float sum = quarter.all_reduce_scalar(static_cast<float>(comm.rank()));
    // Partner differs by exactly 1 in world rank (pairs 0-1, 2-3, ...).
    const int base = comm.rank() - comm.rank() % 2;
    EXPECT_EQ(sum, static_cast<float>(base + base + 1));
  });
}

TEST(CommSplit, SequentialSplitsGetDistinctIds) {
  World world(2);
  world.run([](Comm& comm) {
    Comm a = comm.split(0, comm.rank());
    Comm b = comm.split(0, comm.rank());
    EXPECT_NE(a.id(), b.id());
    // Traffic on `a` must not be readable on `b`: send on a, tag 0.
    if (comm.rank() == 0) {
      const float x = 5.f;
      a.send(std::span<const float>(&x, 1), 1, 0);
      const float y = 6.f;
      b.send(std::span<const float>(&y, 1), 1, 0);
    } else {
      float y = 0.f;
      b.recv(std::span<float>(&y, 1), 0, 0);
      EXPECT_EQ(y, 6.f);
      float x = 0.f;
      a.recv(std::span<float>(&x, 1), 0, 0);
      EXPECT_EQ(x, 5.f);
    }
  });
}

TEST(Comm, ManyRanksStressAllReduce) {
  // Oversubscribed threads on one core: exercises scheduling robustness.
  const int n = 16;
  World world(n);
  world.run([n](Comm& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      std::vector<float> data(101, 1.0f);
      comm.all_reduce(std::span<float>(data));
      for (float v : data) ASSERT_EQ(v, static_cast<float>(n));
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

}  // namespace
}  // namespace ptdp::dist
