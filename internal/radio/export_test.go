package radio

// BlocksMade reports how many payload and item blocks the medium has made:
// the most its transmissions in flight have needed at once.
func (m *Medium) BlocksMade() (payloads, items int) {
	payloads, _ = m.payloads.Counts()
	items, _ = m.items.Counts()
	return payloads, items
}
