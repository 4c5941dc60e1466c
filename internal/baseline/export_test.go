package baseline

// RelayPool reports a flood detector's jittered-relay pool: how many records
// it has allocated, and how many of them are armed right now.
func RelayPool(d Detector) (made, armed int) {
	f := d.(*Flood)
	return f.relays.made, f.relays.made - len(f.relays.free)
}
