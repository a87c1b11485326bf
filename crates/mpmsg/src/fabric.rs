//! The message-passing fabric: per-core mailboxes over bounded channels.
//!
//! Caldera schedules one worker thread per core of the task-parallel
//! archipelago; threads never synchronise through shared memory, they
//! exchange [`Envelope`]s through this fabric. On real non-CC hardware the
//! transport would be the on-chip message-passing network (e.g. the Intel
//! SCC's message buffers); here it is a set of bounded multi-producer,
//! single-consumer channels, which preserves the programming model ("the
//! message-passing layer can be replaced ... without any change to the core
//! database logic").

use crate::CoreId;
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use h2tap_common::{H2Error, Result};
use std::sync::Arc;
use std::time::Duration;

/// A message in flight between two cores.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending core.
    pub from: CoreId,
    /// Destination core.
    pub to: CoreId,
    /// Payload.
    pub payload: M,
}

/// The sending half owned by each worker: can address any core.
#[derive(Debug, Clone)]
pub struct Postbox<M> {
    core: CoreId,
    senders: Arc<Vec<Sender<Envelope<M>>>>,
}

impl<M> Postbox<M> {
    /// The core this postbox belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Sends `payload` to `to`. Blocks if the destination mailbox is full,
    /// which provides natural back-pressure between OLTP workers.
    pub fn send(&self, to: CoreId, payload: M) -> Result<()> {
        let sender =
            self.senders.get(to.0 as usize).ok_or_else(|| H2Error::ChannelClosed(format!("no such core {to:?}")))?;
        sender
            .send(Envelope { from: self.core, to, payload })
            .map_err(|_| H2Error::ChannelClosed(format!("mailbox of {to:?} closed")))
    }
}

/// The receiving half owned by each worker: its private mailbox.
#[derive(Debug)]
pub struct Mailbox<M> {
    core: CoreId,
    receiver: Receiver<Envelope<M>>,
}

impl<M> Mailbox<M> {
    /// The core this mailbox belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    fn closed(&self) -> H2Error {
        H2Error::ChannelClosed(format!("all senders to {:?} dropped", self.core))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Option<Envelope<M>>> {
        match self.receiver.try_recv() {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(self.closed()),
        }
    }

    /// Blocks until a message arrives: the wait of an owner with nothing
    /// else to do, which costs no wake-up while the mailbox stays empty.
    pub fn recv(&self) -> Result<Envelope<M>> {
        self.receiver.recv().map_err(|_| self.closed())
    }

    /// Blocking receive with a timeout; `Ok(None)` on timeout.
    #[expect(
        clippy::disallowed_methods,
        reason = "a wait for one reply bounded by its deadline (the OLTP remote-lock timeout, the benchmark's round-trip probe), not an idle poll"
    )]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope<M>>> {
        match self.receiver.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(self.closed()),
        }
    }
}

/// Builds the fabric for `cores` workers and returns one (postbox, mailbox)
/// pair per core, in core order. The third slot is empty: the fabric keeps
/// no traffic counters, and the slot stays only while the benchmark's
/// round-trip probe destructures a triple.
///
/// `mailbox_capacity` bounds each mailbox, and a sender to a full one
/// blocks. Two owners that fill each other's mailboxes while both are
/// sending would deadlock, so whoever feeds a mailbox from outside the fabric
/// must bound what it has in flight well below the capacity. The OLTP
/// runtime's default (1024) leaves room for that: a worker's mailbox is its
/// only inbox, client submissions are held to 256 per worker at
/// `OltpRuntime::submit`, and the lock traffic beside them is at most a few
/// messages per running transaction.
pub fn build_fabric<M>(cores: usize, mailbox_capacity: usize) -> (Vec<Postbox<M>>, Vec<Mailbox<M>>, ()) {
    assert!(cores > 0, "fabric needs at least one core");
    let mut senders = Vec::with_capacity(cores);
    let mut receivers = Vec::with_capacity(cores);
    for _ in 0..cores {
        let (tx, rx) = bounded(mailbox_capacity.max(1));
        senders.push(tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);
    let postboxes = (0..cores).map(|i| Postbox { core: CoreId(i as u32), senders: Arc::clone(&senders) }).collect();
    let mailboxes =
        receivers.into_iter().enumerate().map(|(i, receiver)| Mailbox { core: CoreId(i as u32), receiver }).collect();
    (postboxes, mailboxes, ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let (post, mail, ()) = build_fabric::<u32>(3, 8);
        post[0].send(CoreId(2), 99).unwrap();
        let env = mail[2].try_recv().unwrap().unwrap();
        assert_eq!(env.from, CoreId(0));
        assert_eq!(env.to, CoreId(2));
        assert_eq!(env.payload, 99);
        assert!(mail[1].try_recv().unwrap().is_none());
    }

    #[test]
    fn sending_to_unknown_core_fails() {
        let (post, _mail, _) = build_fabric::<u32>(2, 8);
        assert!(post[0].send(CoreId(5), 1).is_err());
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let (_post, mail, _) = build_fabric::<u32>(1, 8);
        let got = mail[0].recv_timeout(Duration::from_millis(5)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn recv_blocks_until_a_message_is_sent() {
        let (post, mut mail, ()) = build_fabric::<u32>(1, 8);
        let mailbox = mail.remove(0);
        let (ready_tx, ready_rx) = crossbeam_channel::bounded(1);
        let owner = thread::spawn(move || {
            ready_tx.send(()).unwrap();
            mailbox.recv().unwrap().payload
        });
        ready_rx.recv().unwrap();
        post[0].send(CoreId(0), 7).unwrap();
        assert_eq!(owner.join().unwrap(), 7);
    }

    #[test]
    fn cross_thread_request_reply() {
        let (post, mut mail, _) = build_fabric::<String>(2, 8);
        let server_mail = mail.remove(1);
        let server_post = post[1].clone();
        let client_post = post[0].clone();
        let client_mail = mail.remove(0);

        let server = thread::spawn(move || {
            let env = server_mail.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
            server_post.send(env.from, format!("re:{}", env.payload)).unwrap();
        });
        client_post.send(CoreId(1), "lock".to_string()).unwrap();
        let reply = client_mail.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(reply.payload, "re:lock");
        server.join().unwrap();
    }

    #[test]
    fn postboxes_are_numbered_in_core_order() {
        let (post, _mail, ()) = build_fabric::<u8>(4, 2);
        assert_eq!(post[3].core(), CoreId(3));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_fabric_panics() {
        let _ = build_fabric::<u8>(0, 1);
    }
}
