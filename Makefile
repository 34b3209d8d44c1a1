# Developer entry points. The repo is plain `go build ./...`-able; the
# targets below just package the common invocations.

GO    ?= go
DATE  ?= $(shell date +%F)
# The benchmark-trajectory set: the end-to-end simulator throughput
# benchmark, the event-kernel micro-benchmarks, the multi-key lock
# service's aggregate-throughput-vs-keys points (in-memory and over
# loopback TCP), the wire codec encode+decode micro-benchmarks, the
# inline-executor lock-machinery micro-benchmarks (message-driven handoff
# and the uncontended Lock/Unlock fast path), and the session-protocol
# round trip (Acquire+Release over loopback TCP against an instant
# backend).
# Override BENCH to run more (e.g. `make bench BENCH=.` for every
# experiment benchmark).
BENCH ?= SimulatorThroughput|ScheduleStep|PostStep|CancelHeavy|ManagerMultiKey|ManagerTCPMultiKey|SealOpen|NodeHandoffLatency|LockUnlockUncontended|SessionAcquireRelease

.PHONY: build test race bench bench-full bench-e2e fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -skip 'TestChaosSoak|TestManagerChaosSoakMultiKey|TestSessionChaosSoak|TestRunTenThousandSessions' ./...

# bench runs the trajectory benchmarks and records the point as
# BENCH_$(DATE).json. Commit the file when the numbers move: the dated
# series is the performance history of the simulation engine.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem . ./internal/sim ./internal/live ./internal/wire ./internal/session | tee bench_raw.txt
	$(GO) run ./cmd/benchjson -date $(DATE) -o BENCH_$(DATE).json < bench_raw.txt
	@rm -f bench_raw.txt
	@echo wrote BENCH_$(DATE).json

# bench-full additionally sweeps every experiment benchmark (E1–E15
# wrappers in bench_test.go); expect several minutes.
bench-full:
	$(MAKE) bench BENCH=.

# bench-e2e runs the committed end-to-end benchmark (bench/, its own Go
# module: client → session → Manager → TCP → token, six workloads) and
# self-tests the harness first, since `make test` never sees it. ARGS
# passes through to the program, e.g.
#   make bench-e2e ARGS='-seed 1 -out bench/results/mine.json'
#   make bench-e2e ARGS='-workload hop_1key -seed 7 -seconds 15 -trace 0'
bench-e2e:
	$(GO) -C bench vet .
	$(GO) -C bench test .
	bash bench/run.sh $(ARGS)

# fuzz runs the codec differential fuzzer longer than CI's 30-second
# smoke; override FUZZTIME for a real soak.
FUZZTIME ?= 2m
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzCodecEquivalence -fuzztime=$(FUZZTIME) ./internal/wire
