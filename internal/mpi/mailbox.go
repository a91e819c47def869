package mpi

// message is one in-flight point-to-point payload.
type message struct {
	src  int
	tag  int
	comm int
	data []float64
}

// mailbox is one rank's incoming message queue. Sends are buffered (always
// complete immediately, as MPI permits for small messages); a receive with no
// queued match blocks its rank until a matching send makes it runnable again.
// Only the rank the scheduler is running touches a mailbox, so it needs no
// lock.
type mailbox struct {
	queue []message
}

func (m *mailbox) put(msg message) { m.queue = append(m.queue, msg) }

// take removes and returns the first message matching (src, tag, comm);
// src may be AnySource. ok is false when no match is queued.
func (m *mailbox) take(src, tag, comm int) (message, bool) {
	for i, msg := range m.queue {
		if !matches(msg, src, tag, comm) {
			continue
		}
		m.queue = append(m.queue[:i], m.queue[i+1:]...)
		return msg, true
	}
	return message{}, false
}

// hasMatch reports whether take(src, tag, comm) would succeed, without
// consuming anything.
func (m *mailbox) hasMatch(src, tag, comm int) bool {
	for _, msg := range m.queue {
		if matches(msg, src, tag, comm) {
			return true
		}
	}
	return false
}

// candidateSources returns the distinct local source ranks with at least one
// queued (tag, comm) match, sorted ascending: the eligible set of a wildcard
// receive. Sorting by source (not queue position) keeps the set — and the
// index space MatchOrder directives address — independent of arrival order.
func (m *mailbox) candidateSources(tag, comm int) []int {
	var srcs []int
	for _, msg := range m.queue {
		if msg.tag != tag || msg.comm != comm {
			continue
		}
		pos := len(srcs)
		dup := false
		for i, s := range srcs {
			if s == msg.src {
				dup = true
				break
			}
			if s > msg.src {
				pos = i
				break
			}
		}
		if dup {
			continue
		}
		srcs = append(srcs, 0)
		copy(srcs[pos+1:], srcs[pos:])
		srcs[pos] = msg.src
	}
	return srcs
}

func matches(msg message, src, tag, comm int) bool {
	if msg.comm != comm || msg.tag != tag {
		return false
	}
	return src == AnySource || msg.src == src
}
