// Package place encodes topology-placement candidates — which bank
// stack fills each column, where the core and memory controller sit,
// and the link budgets between them — and registers the "placement"
// experiment that searches the space with deterministic simulated
// annealing (cmd/nucaopt drives it).
package place
