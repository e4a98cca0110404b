// The benchmark is a module of its own so that the repository's own
// build and tests (`go build ./... && go test ./...` at the root) never
// see it. Its import path sits under the parent module's, which is what
// lets it import the parent's internal/ packages; the replace directive
// points at the checkout it is measured in.
module github.com/tyche-sim/tyche/benchmark

go 1.22

require github.com/tyche-sim/tyche v0.0.0

replace github.com/tyche-sim/tyche => ../
