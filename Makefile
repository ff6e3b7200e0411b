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

# Every fuzz target of the module, one package and one target per line
# (go test -fuzz takes one of each). CI runs the seed corpora only.
FUZZTIME ?= 30s
FUZZ_TARGETS = \
	internal/graph:FuzzReadCOOText internal/graph:FuzzReadCOOBinary internal/graph:FuzzReadDataset \
	internal/sparse:FuzzGatherRows internal/sparse:FuzzExpRow internal/sparse:FuzzCosineRow \
	internal/fuse:FuzzGenericPlanVsDirect internal/gnn:FuzzLoadWeights \
	internal/ckpt:FuzzRead internal/dist/faults:FuzzParse internal/dist/net:FuzzDecodeFrames \
	internal/serving:FuzzHandler

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "== $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) ./$${t%%:*}/; \
	done

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

clean:
	rm -rf results results_full test_output.txt bench_output.txt
