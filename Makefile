# Single source of truth for tool versions: CI jobs and local runs both
# install through these targets, so bumping a pin is a one-line change
# here instead of a hunt through workflow files.
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.4

GOBIN := $(CURDIR)/bin

.PHONY: build test lint vet-lint staticcheck govulncheck fuzz-seeds

build:
	go build ./...

test:
	go test ./...

# The repo's own analyzer suite (internal/lint, driven by cmd/ucclint):
# poolsafe and lockorder. Exits nonzero on any finding.
lint:
	go run ./cmd/ucclint ./...

# The same suite through the go command's vet driver: incremental, cached
# per package, and proves the unitchecker protocol stays intact.
vet-lint:
	mkdir -p $(GOBIN)
	go build -o $(GOBIN)/ucclint ./cmd/ucclint
	go vet -vettool=$(GOBIN)/ucclint ./...

staticcheck:
	GOBIN=$(GOBIN) go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GOBIN)/staticcheck ./...

govulncheck:
	GOBIN=$(GOBIN) go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	$(GOBIN)/govulncheck ./...

# Seed corpora for every fuzz target (the quick, deterministic pass).
fuzz-seeds:
	go test ./internal/qm -run '^Fuzz'
	go test ./internal/wire -run '^Fuzz'
	go test ./internal/repl -run '^Fuzz'
	go test ./internal/wal -run '^Fuzz'
