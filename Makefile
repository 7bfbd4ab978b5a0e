GO ?= go

.PHONY: check vet bench cover serve

# Tier-1 verification: everything must build and every test must pass.
check:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Headline perf trajectory: the E3 frontier benchmark (naive and pebble
# series), the E9 enumeration benchmark (string pipeline vs compiled
# rows), the E10 engine benchmark (prepared vs one-shot execution), the
# E11 storage benchmark (frozen CSR backend vs overlay-only graph), the E12
# sharding benchmark (sharded backend vs frozen, per shard count), the
# E13 serving benchmark (HTTP request latency per engine mode plus
# the overload cell's shed%/p99 metrics), the E14 snapshot benchmark
# (cold start to first row: parse vs heap load vs mmap), the E15
# ingest benchmark (parallel pipeline vs sequential parse; overlay
# vs frozen vs refrozen enumeration), the E16 planner benchmark
# (compile-time join ordering on vs off, enumeration and order-free
# count) and the E17 filter benchmark (bind-time filter pushdown on vs
# off, plain and under a projected DISTINCT), recorded as go-test JSON
# events so the numbers are tracked across PRs. Bump the artifact name
# (BENCH_<n>.json) per PR.
BENCH_OUT ?= BENCH_10.json
bench:
	$(GO) test -bench='E3|E9|E10|E11|E12|E13|E14|E15|E16|E17' -benchmem -run='^$$' -json > $(BENCH_OUT)
	@grep 'ns/op' $(BENCH_OUT) | sed -E 's/.*"Output":"(.*)\\n".*/\1/; s/\\t/\t/g'

# Run the streaming SPARQL endpoint over an N-Triples file:
#   make serve GRAPH=data.nt SERVE_FLAGS='-addr :8080 -shards 4'
GRAPH ?= examples/social.nt
serve:
	$(GO) run ./cmd/wdserve -data $(GRAPH) $(SERVE_FLAGS)

# Coverage with the gate CI enforces: the total statement coverage must
# not drop below the recorded baseline (see .github/workflows/ci.yml).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
