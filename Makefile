# Tier-1+ gate for the reproduction (see ROADMAP.md). scripts/ci.sh is the
# gate; `make ci` runs exactly that script.

GO ?= go

.PHONY: ci vet build test race

ci:
	./scripts/ci.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine is concurrent; everything must be race-clean at every -j.
race:
	$(GO) test -race ./...
