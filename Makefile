GO ?= go

.PHONY: all build test race cover bench fuzz figures figures-full examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

bench:
	$(GO) test -bench=. -benchmem .

fuzz:
	$(GO) test -fuzz FuzzReadCOOText -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadCOOBinary -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadDataset -fuzztime 30s ./internal/graph/

# Regenerate every reproduced figure's data series (smoke scale).
figures:
	$(GO) run ./cmd/agnn-plots -scale small -out results

# The EXPERIMENTS.md configuration (minutes).
figures-full:
	$(GO) run ./cmd/agnn-plots -scale full -out results_full

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/citation
	$(GO) run ./examples/custom_model
	$(GO) run ./examples/distributed
	$(GO) run ./examples/graphblas

clean:
	rm -rf results results_full test_output.txt bench_output.txt
