# Developer entry points. The repo is plain `go build ./...`-able; the
# targets below just package the common invocations.

GO ?= go

.PHONY: build test race allocs bench fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -skip 'TestChaosSoak|TestManagerChaosSoakMultiKey|TestSessionChaosSoak|TestRunTenThousandSessions' ./...

# allocs runs the lock path's allocation-budget guards, which skip under
# -race (the detector allocates on its own): decode and keying, the
# session tier's unboxed encode (EncodeValue) and borrowed decode
# (DecodeBorrowed), the session round trip (0 per Acquire+Release), live
# Lock/Unlock and the live token hop between two Managers (DESIGN.md,
# "Allocation budget").
allocs:
	$(GO) test -run 'Allocs' -count=1 ./internal/wire ./internal/session ./internal/live

# bench runs the committed benchmark (bench/, its own Go module: client →
# session → Manager → TCP → token, six workloads declared in
# BENCHMARK.json) and self-tests the harness first, since `make test`
# never sees it. It is the only thing that measures performance. ARGS
# passes through to the program, e.g.
#   make bench ARGS='-seed 1 -out bench/results/mine.json'
#   make bench ARGS='-workload hop_1key -seed 7 -seconds 15 -trace 0'
bench:
	$(GO) -C bench vet .
	$(GO) -C bench test .
	bash bench/run.sh $(ARGS)

# fuzz runs the codec differential fuzzer longer than CI's 30-second
# smoke; override FUZZTIME for a real soak.
FUZZTIME ?= 2m
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzCodecEquivalence -fuzztime=$(FUZZTIME) ./internal/wire
