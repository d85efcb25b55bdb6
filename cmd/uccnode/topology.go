package main

import (
	"fmt"
	"strconv"
	"strings"

	"ucc/internal/model"
	"ucc/internal/transport"
)

// parsePeers parses -peers and enforces the node invariant: exactly one
// address per site, index = site id.
func parsePeers(csv string, sites int) ([]string, error) {
	peers, err := transport.ParsePeerList(csv)
	if err != nil {
		return nil, fmt.Errorf("-peers: %w", err)
	}
	if len(peers) != sites {
		return nil, fmt.Errorf("-peers must list exactly %d addresses, got %d", sites, len(peers))
	}
	return peers, nil
}

// parseItems parses a comma-separated item-id list (for -move-items).
func parseItems(csv string) ([]model.ItemID, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []model.ItemID
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad item id %q", part)
		}
		out = append(out, model.ItemID(n))
	}
	return out, nil
}
